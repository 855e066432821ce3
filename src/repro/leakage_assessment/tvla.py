"""Test Vector Leakage Assessment (Goodwill et al. / Cooper et al. [6]).

The non-specific fixed-vs-random test: collect traces for a fixed plaintext
and for random plaintexts under the same key, and compute Welch's t per
sample.  |t| < 4.5 everywhere means no first-order leakage is detectable at
the 99.999+ % confidence the methodology prescribes; the paper uses exactly
this to grade RFTC (Fig. 6): M = 1 leaks (|t| up to ~50), M = 2 grazes the
threshold, M = 3 stays inside except at the plaintext-load samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AttackError, CheckpointError, ConfigurationError
from repro.utils.stats import RunningMoments, fold_interleaved, welch_t

#: The pass/fail threshold of [6]: |t| above this flags exploitable leakage.
TVLA_THRESHOLD = 4.5

#: Fixed plaintext of the TVLA campaigns (the standard TVLA constant).
TVLA_FIXED_PLAINTEXT = bytes.fromhex("da39a3ee5e6b4b0d3255bfef95601890")


@dataclass
class TvlaResult:
    """Per-sample t statistics plus the pass/fail summary.

    Attributes
    ----------
    t_values:
        Welch t per sample (positive = fixed population higher).
    n_fixed / n_random:
        Population sizes.
    exclude_prefix_samples:
        Samples at the start of the trace ignored by :attr:`passes` —
        models the paper's note that only the plaintext-load stage exceeds
        the threshold for RFTC(3, .) and "cannot be attacked using DPA".
    """

    t_values: np.ndarray
    n_fixed: int
    n_random: int
    exclude_prefix_samples: int = 0

    @property
    def max_abs_t(self) -> float:
        return float(np.abs(self.t_values).max())

    def max_abs_t_after_load(self) -> float:
        """Peak |t| ignoring the excluded plaintext-load prefix."""
        body = self.t_values[self.exclude_prefix_samples :]
        if body.size == 0:
            raise AttackError("exclusion removed every sample")
        return float(np.abs(body).max())

    @property
    def passes(self) -> bool:
        """True when |t| stays within the 4.5 limit outside the prefix."""
        return self.max_abs_t_after_load() < TVLA_THRESHOLD


def tvla_fixed_vs_random(
    fixed_traces: np.ndarray,
    random_traces: np.ndarray,
    exclude_prefix_samples: int = 0,
) -> TvlaResult:
    """One-shot TVLA from two in-memory trace matrices."""
    fixed = np.asarray(fixed_traces, dtype=np.float64)
    rnd = np.asarray(random_traces, dtype=np.float64)
    if fixed.ndim != 2 or rnd.ndim != 2:
        raise ConfigurationError("trace groups must be 2-D matrices")
    t = welch_t(fixed, rnd)
    return TvlaResult(
        t_values=t,
        n_fixed=fixed.shape[0],
        n_random=rnd.shape[0],
        exclude_prefix_samples=exclude_prefix_samples,
    )


class IncrementalTvla:
    """Streaming TVLA: fold batches as they are acquired.

    Million-trace campaigns (the paper's Fig. 6 uses one million) never
    hold the full matrix; Welford accumulators per population are exact.
    Interleaved fixed/random batches (:meth:`update_interleaved`) step
    both populations in one Welford pass, bit-identical to folding the
    two halves separately through :meth:`update_fixed` and
    :meth:`update_random`.
    """

    #: Prefix samples the result's ``passes`` ignores: none here.
    exclude_prefix_samples = 0

    def __init__(self):
        self._fixed = RunningMoments()
        self._random = RunningMoments()

    def update_fixed(self, traces: np.ndarray) -> None:
        self._fixed.update(traces)

    def update_random(self, traces: np.ndarray) -> None:
        self._random.update(traces)

    def update_interleaved(self, traces: np.ndarray) -> None:
        """Fold a batch whose even rows are fixed and odd rows random."""
        fold_interleaved((self._fixed, self._random), traces)

    def snapshot(self) -> dict:
        """Serializable state: both populations' exact Welford moments."""
        state: dict = {"exclude_prefix_samples": self.exclude_prefix_samples}
        for prefix, moments in (("fixed", self._fixed), ("random", self._random)):
            for key, value in moments.snapshot().items():
                state[f"{prefix}.{key}"] = value
        return state

    def restore(self, state: dict) -> None:
        """Overwrite this accumulator with a :meth:`snapshot` state."""
        excl = int(state.get("exclude_prefix_samples", -1))
        if excl != self.exclude_prefix_samples:
            raise CheckpointError(
                f"snapshot excludes {excl} prefix samples, accumulator "
                f"excludes {self.exclude_prefix_samples}"
            )
        for prefix, moments in (("fixed", self._fixed), ("random", self._random)):
            sub = {
                key[len(prefix) + 1 :]: value
                for key, value in state.items()
                if key.startswith(prefix + ".")
            }
            moments.restore(sub)

    def result(self) -> TvlaResult:
        if self._fixed.count < 2 or self._random.count < 2:
            raise AttackError("TVLA requires at least 2 traces per population")
        var_f = self._fixed.variance
        var_r = self._random.variance
        denom = np.sqrt(var_f / self._fixed.count + var_r / self._random.count)
        diff = self._fixed.mean - self._random.mean
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(
                denom > 0.0,
                diff / denom,
                np.where(diff == 0.0, 0.0, np.sign(diff) * np.inf),
            )
        return TvlaResult(
            t_values=t,
            n_fixed=self._fixed.count,
            n_random=self._random.count,
            exclude_prefix_samples=self.exclude_prefix_samples,
        )


def load_stage_samples(
    sample_period_ns: float, max_first_period_ns: float
) -> int:
    """Samples covered by the plaintext-load cycle (for prefix exclusion).

    The load edge lands at the end of the first clock period; everything up
    to the slowest possible first period (plus one sample of slack) is the
    "Load Plaintext" region Fig. 6-c annotates.
    """
    if sample_period_ns <= 0 or max_first_period_ns <= 0:
        raise ConfigurationError("periods must be positive")
    return int(np.ceil(max_first_period_ns / sample_period_ns)) + 1
