"""Single-pole IIR recursion over samples-major trace matrices.

The measurement chain has three first-order filters — the synthesizer's
pulse decay, the scope's bandwidth limit and the cloud sensor's PDN
observer — and all of them are ``y[s] = b0·x[s] + c·y[s−1]``.  Storing
the traces samples-major, ``(S, n)`` in C order, turns that recursion
into ``S`` vectorized row updates over the ``n`` traces.

With ``y`` pre-scaled by ``b0`` the result equals
``scipy.signal.lfilter([b0], [1, -c], x, axis=…)`` bit for bit: its
direct form II transposed evaluates ``(0·x[s−1] − a1·y[s−1]) + b0·x[s]``,
``−(a1·y) == (−a1)·y`` exactly, and IEEE addition commutes.  The one
exception is the sign of a zero output where the input itself holds a
−0.0; the synthesizer's impulses never do.
"""

from __future__ import annotations

import numpy as np


def decay_rows(y: np.ndarray, c: float) -> np.ndarray:
    """Run ``y[s] += c·y[s−1]`` down the rows of ``y`` in place.

    ``y`` is a C-contiguous ``(S, n)`` float64 array: sample ``s`` of
    every trace is row ``s``.  Each row costs two ufunc calls into one
    preallocated buffer.  Returns ``y``.
    """
    if y.ndim != 2 or y.dtype != np.float64 or not y.flags.c_contiguous:
        raise ValueError("decay_rows needs a C-contiguous 2-D float64 array")
    # On short rows (n ≈ 100) the per-call overhead dominates: a vector
    # coefficient and positional ``out`` arguments each make the calls
    # about a quarter cheaper than a Python-float scalar and ``out=``.
    coeff = np.full(y.shape[1], c)
    tmp = np.empty(y.shape[1])
    rows = list(y)
    for prev, row in zip(rows, rows[1:]):
        np.multiply(prev, coeff, tmp)
        np.add(row, tmp, row)
    return y


def rc_lowpass(
    traces: np.ndarray, sample_rate_msps: float, bandwidth_mhz: float
) -> np.ndarray:
    """Single-pole RC low-pass of ``(n, S)`` traces at the −3 dB bandwidth.

    Returns the filtered traces samples-major: a fresh C-contiguous
    ``(S, n)`` float64 array, i.e. the transpose of the result.  The
    recursion runs in float64 whatever the input dtype: a pre-noise
    analog tail decays exponentially and would underflow a float32
    recursion into denormals (microcoded arithmetic, ~3x the cost).
    Reading a Fortran-ordered input, such as the synthesizer's output,
    costs no transpose; a C-ordered one pays one transposing copy.
    """
    dt_s = 1e-6 / sample_rate_msps
    rc = 1.0 / (2.0 * np.pi * bandwidth_mhz * 1e6)
    alpha = dt_s / (rc + dt_s)
    y = np.multiply(traces.T, alpha, dtype=np.float64, order="C")
    return decay_rows(y, 1.0 - alpha)
