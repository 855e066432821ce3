"""Statistics primitives used by the attacks and leakage assessment.

Everything here is vectorized numpy; the CPA engine correlates every key
hypothesis against every trace sample, so the column-wise Pearson routine is
the hot path of the whole library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import AttackError, ConfigurationError


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient between two 1-D vectors.

    Returns 0.0 (rather than NaN) when either vector is constant, which is
    the convention the CPA ranking code relies on: a constant prediction
    carries no information and must not outrank real correlations.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ConfigurationError(
            f"pearson requires equal-length vectors, got {x.shape} and {y.shape}"
        )
    if x.size < 2:
        raise ConfigurationError("pearson requires at least 2 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def center_columns(matrix: np.ndarray) -> "Tuple[np.ndarray, np.ndarray]":
    """Column-centered copy of a 2-D matrix plus per-column L2 norms.

    These are the sufficient statistics of one side of a column-wise
    Pearson correlation; :class:`~repro.attacks.cpa.CpaEngine` computes
    them once for the trace matrix and reuses them across all key bytes
    and guesses instead of recomputing them per byte.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ConfigurationError("center_columns requires a 2-D matrix")
    centered = matrix - matrix.mean(axis=0, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=0))
    return centered, norms


def centered_column_pearson(
    p_centered: np.ndarray,
    p_norm: np.ndarray,
    t_centered: np.ndarray,
    t_norm: np.ndarray,
) -> np.ndarray:
    """Column-wise Pearson from precomputed :func:`center_columns` outputs.

    ``(n, H)`` predictions against ``(n, S)`` traces ->  ``(H, S)``
    coefficients; zero-variance columns on either side yield 0.0, matching
    :func:`column_pearson` (which is implemented on top of this).
    """
    if p_centered.shape[0] != t_centered.shape[0]:
        raise ConfigurationError(
            "predictions and traces must agree on the number of traces: "
            f"{p_centered.shape[0]} vs {t_centered.shape[0]}"
        )
    cov = p_centered.T @ t_centered
    denom = np.outer(p_norm, t_norm)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0.0, cov / denom, 0.0)


def column_pearson(predictions: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Correlate each prediction column against each trace column.

    Parameters
    ----------
    predictions:
        ``(n_traces, n_hypotheses)`` model outputs (e.g. Hamming distances
        for each of 256 key guesses).
    traces:
        ``(n_traces, n_samples)`` measured power traces.

    Returns
    -------
    ``(n_hypotheses, n_samples)`` matrix of Pearson coefficients.  Columns
    with zero variance on either side produce 0.0 entries.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    traces = np.asarray(traces, dtype=np.float64)
    if predictions.ndim != 2 or traces.ndim != 2:
        raise ConfigurationError("column_pearson requires 2-D inputs")
    if predictions.shape[0] != traces.shape[0]:
        raise ConfigurationError(
            "predictions and traces must agree on the number of traces: "
            f"{predictions.shape[0]} vs {traces.shape[0]}"
        )
    n = predictions.shape[0]
    if n < 2:
        raise AttackError("column_pearson requires at least 2 traces")

    p_centered, p_norm = center_columns(predictions)
    t_centered, t_norm = center_columns(traces)
    return centered_column_pearson(p_centered, p_norm, t_centered, t_norm)


def welch_t(group_a: np.ndarray, group_b: np.ndarray) -> np.ndarray:
    """Welch's t-statistic per sample between two groups of traces.

    Parameters are ``(n_a, n_samples)`` and ``(n_b, n_samples)`` matrices.
    Returns a length ``n_samples`` vector.  Zero-variance samples yield 0.0
    when the means agree and ±inf otherwise, matching scipy's behaviour but
    without the per-call overhead.
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigurationError("welch_t requires 2-D trace matrices")
    if a.shape[1] != b.shape[1]:
        raise ConfigurationError(
            f"groups must share the sample axis: {a.shape[1]} vs {b.shape[1]}"
        )
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise AttackError("welch_t requires at least 2 traces per group")
    mean_a = a.mean(axis=0)
    mean_b = b.mean(axis=0)
    var_a = a.var(axis=0, ddof=1)
    var_b = b.var(axis=0, ddof=1)
    denom = np.sqrt(var_a / a.shape[0] + var_b / b.shape[0])
    diff = mean_a - mean_b
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(
            denom > 0.0,
            diff / denom,
            np.where(diff == 0.0, 0.0, np.sign(diff) * np.inf),
        )
    return t


def welch_degrees_of_freedom(group_a: np.ndarray, group_b: np.ndarray) -> np.ndarray:
    """Welch–Satterthwaite degrees of freedom per sample."""
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    va = a.var(axis=0, ddof=1) / a.shape[0]
    vb = b.var(axis=0, ddof=1) / b.shape[0]
    num = (va + vb) ** 2
    den = va**2 / (a.shape[0] - 1) + vb**2 / (b.shape[0] - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0.0, num / den, np.inf)


@dataclass
class RunningMoments:
    """Streaming mean/variance accumulator (Welford), per sample point.

    Used by the incremental TVLA engine so million-trace campaigns never
    hold the full trace matrix in memory.  Rows are folded by the one
    Welford loop in :func:`fold_interleaved`, which TVLA also uses to
    step its fixed and random populations together.
    """

    count: int = 0
    _mean: Optional[np.ndarray] = field(default=None, repr=False)
    _m2: Optional[np.ndarray] = field(default=None, repr=False)

    def update(self, traces: np.ndarray) -> None:
        """Fold a ``(n, n_samples)`` batch (or a single trace) into the stats.

        A zero-trace batch — ``(0, S)`` or an empty 1-D array — is an exact
        no-op: it neither bumps ``count`` nor pins the accumulator width
        (an empty 1-D array carries no sample-count information at all).
        """
        fold_interleaved((self,), traces)

    def snapshot(self) -> dict:
        """Serializable state: exact ``{count, mean, m2}`` (arrays omitted
        while empty).  ``restore`` of a snapshot reproduces the accumulator
        bit-for-bit, which is what campaign checkpoints rely on."""
        state: dict = {"count": int(self.count)}
        if self._mean is not None:
            state["mean"] = self._mean.copy()
            state["m2"] = self._m2.copy()
        return state

    def restore(self, state: dict) -> None:
        """Overwrite this accumulator with a :meth:`snapshot` state."""
        count = int(state.get("count", 0))
        if count < 0:
            raise ConfigurationError("snapshot count must be >= 0")
        if count > 0 and ("mean" not in state or "m2" not in state):
            raise ConfigurationError(
                "snapshot with count > 0 must carry mean and m2 arrays"
            )
        self.count = count
        if "mean" in state:
            self._mean = np.array(state["mean"], dtype=np.float64)
            self._m2 = np.array(state["m2"], dtype=np.float64)
        else:
            self._mean = None
            self._m2 = None

    @property
    def mean(self) -> np.ndarray:
        if self._mean is None:
            raise AttackError("no data accumulated")
        return self._mean.copy()

    @property
    def variance(self) -> np.ndarray:
        """Sample variance (ddof=1)."""
        if self._m2 is None or self.count < 2:
            raise AttackError("variance requires at least 2 observations")
        return self._m2 / (self.count - 1)


def fold_interleaved(
    moments: Sequence[RunningMoments], traces: np.ndarray
) -> None:
    """Fold row ``i`` of ``traces`` into ``moments[i % K]``, in one pass.

    The ``K`` accumulators are stacked and stepped together over the
    ``(n // K, K, S)`` view of the batch, so ``K`` populations cost one
    set of numpy calls per step instead of ``K``.  A short tail of
    ``n % K`` rows takes one more step over the first accumulators only.
    Each element goes through the same IEEE operations, in the same
    order, as folding each population's rows on its own (``count += 1;
    delta = x - mean; mean += delta / count; m2 += delta * (x - mean)``),
    so the counts, means and M2 are bit-identical to that.

    Every accumulator that receives a row must match the batch width (or
    be empty); on a mismatch nothing is folded.  A zero-row batch is an
    exact no-op, as in :meth:`RunningMoments.update`.
    """
    batch = np.asarray(traces, dtype=np.float64)
    if batch.ndim <= 1 and batch.size == 0:
        return
    batch = np.atleast_2d(batch)
    n, width = batch.shape
    if n == 0:
        return
    k = len(moments)
    live = moments[: min(k, n)]
    for acc in live:
        if acc._mean is not None and acc._mean.shape[0] != width:
            raise ConfigurationError(
                "batch sample count does not match accumulator width"
            )
    zeros = np.zeros(width)
    mean = np.stack([zeros if a._mean is None else a._mean for a in live])
    m2 = np.stack([zeros if a._m2 is None else a._m2 for a in live])
    counts = np.array([a.count for a in live], dtype=np.int64)
    full = n // k
    if full:
        _welford_steps(mean, m2, counts, batch[: full * k].reshape(full, k, width))
    if n > full * k:
        rest = n - full * k
        _welford_steps(
            mean[:rest], m2[:rest], counts[:rest],
            batch[full * k :].reshape(1, rest, width),
        )
    for index, acc in enumerate(live):
        acc._mean = mean[index]
        acc._m2 = m2[index]
        acc.count = int(counts[index])


def _welford_steps(
    mean: np.ndarray, m2: np.ndarray, counts: np.ndarray, rows: np.ndarray
) -> None:
    """Welford-step ``(K, S)`` moments in place over ``(n, K, S)`` rows."""
    n = rows.shape[0]
    divisors = (counts + np.arange(1, n + 1)[:, None]).astype(np.float64)
    delta = np.empty_like(mean)
    step = np.empty_like(mean)
    for row, divisor in zip(rows, divisors[:, :, None]):
        np.subtract(row, mean, out=delta)
        np.divide(delta, divisor, out=step)
        mean += step
        np.subtract(row, mean, out=step)
        step *= delta
        m2 += step
    counts += n


def running_histogram(
    values: np.ndarray,
    bins: int,
    value_range: Optional[Tuple[float, float]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram helper returning (counts, bin_edges) like ``np.histogram``.

    Exists so experiment code has one audited place to histogram completion
    times (Fig. 3) with consistent defaults.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ConfigurationError("running_histogram requires at least one value")
    if bins <= 0:
        raise ConfigurationError("bins must be positive")
    return np.histogram(values, bins=bins, range=value_range)


def max_abs(values: np.ndarray) -> float:
    """Maximum absolute value of an array (0.0 for empty input)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())
