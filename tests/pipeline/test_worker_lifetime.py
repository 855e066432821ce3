"""Workers die with their run, even when the run is SIGKILLed.

A subprocess runs a 2-worker campaign whose fold sleeps; once both
workers are blocked on the parent (ring slots full, or mid-send of a
chunk larger than the pipe buffer), the test SIGKILLs that subprocess
only.  Within 3 s no ``campaign-worker-*`` process of it may be left,
and no ``rftc-shm-<pid>-`` segment: the workers get SIGKILL from the
kernel when their parent dies (under ``forkserver``, a thread of theirs
sees the parent's pipe reach EOF and exits them), and the resource
tracker then unlinks their segments.  Both transports, under ``fork``,
``spawn`` and ``forkserver``.

A worker on the pipe also exits without that signal (a platform with
no ``prctl``): it closed the parent's receive ends it inherited, so its
blocked send fails once the parent is gone.
"""

import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.pipeline import shm as shm_transport

SRC = Path(__file__).resolve().parents[2] / "src"
GRACE_S = 3.0
START_DEADLINE_S = 60.0

#: Runs a 10-chunk unprotected campaign on 2 workers; the first fold
#: prints the workers' pids and then sleeps until the process is killed.
CAMPAIGN = textwrap.dedent(
    """
    import multiprocessing
    import sys
    import time

    from repro.pipeline import CampaignSpec, CompletionTimeConsumer
    from repro.pipeline import StreamingCampaign
    from repro.pipeline import engine
    from repro.pipeline import shm as shm_transport


    class SleepingFold(CompletionTimeConsumer):
        def consume(self, chunk):
            pids = [
                proc.pid for proc in multiprocessing.active_children()
                if proc.name.startswith("campaign-worker-")
            ]
            print(*pids, flush=True)
            time.sleep(600)


    if __name__ == "__main__":
        start_method, transport, pdeathsig = sys.argv[1:]
        if transport == "pickle":
            shm_transport.shm_available = lambda: False
        if pdeathsig == "off":
            engine.die_with_parent = lambda: None
        StreamingCampaign(
            CampaignSpec(target="unprotected"), chunk_size=500, workers=2,
            seed=5, start_method=start_method,
        ).run(5000, [SleepingFold()])
    """
)

TRANSPORTS = [
    "pickle",
    pytest.param(
        "shm",
        marks=pytest.mark.skipif(
            not shm_transport.shm_available(),
            reason="POSIX shared memory unavailable",
        ),
    ),
]


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _start_campaign(tmp_path, start_method, transport, pdeathsig):
    script = tmp_path / "campaign.py"
    script.write_text(CAMPAIGN)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sub = subprocess.Popen(
        [sys.executable, str(script), start_method, transport, pdeathsig],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        text=True,
    )
    ready, _, _ = select.select([sub.stdout], [], [], START_DEADLINE_S)
    line = sub.stdout.readline() if ready else ""
    if not line:
        sub.kill()
        sub.wait()
        pytest.fail("the campaign never folded its first chunk")
    workers = [int(pid) for pid in line.split()]
    assert len(workers) == 2
    # Let the workers run ahead until they block on the parent.
    time.sleep(1.0)
    return sub, workers


def _left_after_kill(sub, workers):
    """SIGKILL ``sub`` alone; what of its run is left after the grace."""
    prefix = f"{shm_transport.SEGMENT_PREFIX}{sub.pid}-"
    os.kill(sub.pid, signal.SIGKILL)
    sub.wait()
    deadline = time.monotonic() + GRACE_S
    while True:
        alive = [pid for pid in workers if _running(pid)]
        segments = shm_transport.leaked_segments(prefix)
        if not (alive or segments) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in alive:  # do not leak them into the rest of the suite
        os.kill(pid, signal.SIGKILL)
    shm_transport.sweep_prefix(prefix)
    return alive, segments


needs_linux = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)


@needs_linux
@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
def test_killed_run_leaves_no_worker_and_no_segment(
    tmp_path, start_method, transport
):
    sub, workers = _start_campaign(tmp_path, start_method, transport, "on")
    alive, segments = _left_after_kill(sub, workers)
    assert alive == [], f"workers {alive} outlived their run"
    assert segments == [], f"segments {segments} outlived their run"


@needs_linux
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_pipe_worker_exits_without_the_death_signal(tmp_path):
    sub, workers = _start_campaign(tmp_path, "fork", "pickle", "off")
    alive, _ = _left_after_kill(sub, workers)
    assert alive == [], f"workers {alive} stayed blocked on a dead parent"
