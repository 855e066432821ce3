"""Tie a multiprocessing child's life to the process that started it.

The campaign engine's workers and the campaign service's job processes
call :func:`die_with_parent` first thing, so a SIGKILLed parent, which
runs no teardown, still takes them along.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

#: ``prctl`` option: the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """End this process when the process that started it dies.

    Under ``fork`` and ``spawn`` the started process is a child of its
    parent, so the kernel is asked to SIGKILL it when the parent dies
    (``prctl(PR_SET_PDEATHSIG)``, Linux): the signal lands wherever the
    child blocks (a pipe send, a ring slot, a GEMM) and costs nothing
    while the parent lives.  The signal follows the *thread* that
    started the child, so start children from a thread that lives as
    long as they should.  A parent that died before the ``prctl`` sends
    no signal, hence the check after it.

    Under ``forkserver`` the child's parent is the fork server, which
    outlives the process that asked for the child.  A daemon thread
    then waits on :func:`multiprocessing.parent_process`'s sentinel,
    the pipe that the real parent holds open, and exits the process
    when it reaches EOF.  Under ``fork`` that sentinel is no use: every
    sibling forked later inherits the parent's end of it.

    Without ``prctl`` (not Linux) a ``fork`` or ``spawn`` child is not
    tied; outside a multiprocessing child this does nothing.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return
    if parent.pid != os.getppid():
        threading.Thread(
            target=_exit_at_eof, args=(parent.sentinel,),
            name="die-with-parent", daemon=True,
        ).start()
        return
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (AttributeError, OSError):
        return
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) == 0:
        if os.getppid() != parent.pid:
            os._exit(1)


def _exit_at_eof(sentinel: int) -> None:
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)
