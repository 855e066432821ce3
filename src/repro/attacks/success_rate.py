"""Success-rate estimation (Pammu et al. convention, as used in Sec. 7).

SR(n) is the probability that an attack given n traces recovers the key;
the paper estimates it by repeating each attack 100 times on random trace
subsets.  ``success_rate_curve`` reproduces that protocol, optionally
routing each subset through a preprocessor (DTW / PCA / FFT) first — the
preprocessor must see only the subset, as a real attacker would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.attacks.cpa import PredictionModel, cpa_attack
from repro.attacks.models import (
    expand_last_round_key,
    last_round_hd_predictions,
)
from repro.errors import AttackError, ConfigurationError
from repro.power.acquisition import TraceSet

#: A trace preprocessor: (traces,) -> transformed traces (possibly with a
#: different sample count).
Preprocessor = Callable[[np.ndarray], np.ndarray]


def wilson_interval(
    successes: np.ndarray, n: int, z: float = 1.96
) -> np.ndarray:
    """Wilson score interval(s) for binomial proportions, shape ``(..., 2)``.

    Well-defined at the edges: SR = 0 and SR = 1 produce finite bounds
    clipped into [0, 1], never NaN.  ``successes`` may be a scalar or an
    array of success counts out of ``n`` trials.
    """
    if n < 1:
        raise AttackError("wilson_interval needs n >= 1 trials")
    if z <= 0:
        raise AttackError("z must be positive")
    successes = np.asarray(successes, dtype=np.float64)
    if successes.size and (
        successes.min() < 0 or successes.max() > n
    ):
        raise AttackError("successes must lie in [0, n]")
    p = successes / n
    denom = 1 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z**2 / (4 * n**2))
    return np.stack(
        [np.clip(center - half, 0, 1), np.clip(center + half, 0, 1)], axis=-1
    )


@dataclass
class SuccessRateCurve:
    """SR(n) estimates plus provenance.

    Attributes
    ----------
    trace_counts:
        The n values at which SR was estimated.
    success_rates:
        Estimated SR at each n.
    n_repeats:
        Attacks per point.
    byte_indices:
        Key bytes attacked; success means *all* of them recovered.
    label:
        Human-readable curve name ("CPA on RFTC(1, 4)" ...).
    """

    trace_counts: np.ndarray
    success_rates: np.ndarray
    n_repeats: int
    byte_indices: Sequence[int]
    label: str = ""
    mean_ranks: Optional[np.ndarray] = None

    def traces_to_disclosure(self, threshold: float = 0.8) -> Optional[int]:
        """Smallest measured n with SR >= threshold; None if never reached."""
        above = np.nonzero(self.success_rates >= threshold)[0]
        if above.size == 0:
            return None
        return int(self.trace_counts[above[0]])


def success_rate_curve(
    trace_set: TraceSet,
    trace_counts: Sequence[int],
    n_repeats: int = 100,
    byte_indices: Sequence[int] = (0,),
    model: PredictionModel = last_round_hd_predictions,
    preprocess: Optional[Preprocessor] = None,
    rng: Optional[np.random.Generator] = None,
    label: str = "",
    use_plaintexts: bool = False,
    seed: Optional[int] = None,
) -> SuccessRateCurve:
    """Estimate SR(n) by repeated subsampled attacks.

    Parameters
    ----------
    trace_set:
        The full campaign; subsets are drawn from it without replacement.
    trace_counts:
        Subset sizes (the SR curve's x axis).
    n_repeats:
        Attacks per subset size (paper: 100).
    byte_indices:
        Key bytes attacked; an attack succeeds when every one is correct.
    model:
        Prediction model; the default last-round HD model consumes
        ciphertexts (set ``use_plaintexts=True`` for first-round models).
    preprocess:
        Optional per-subset trace transform (DTW / PCA / FFT...).
    rng / seed:
        The subsampling randomness — exactly one must be given (a
        generator, or an int that derives one through ``SeedSequence``).
        There is deliberately no unseeded fallback: the curve would
        silently change between runs, violating the repo-wide
        replayable-from-seed contract (and the ``repro verify`` lint
        bans unseeded ``default_rng()`` in ``src/`` for the same
        reason).  A fixed seed makes the curve byte-reproducible.
    """
    if (rng is None) == (seed is None):
        raise AttackError(
            "success_rate_curve needs exactly one of rng= or seed= — "
            "subsampling must be replayable, so there is no unseeded default"
        )
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.asarray(sorted(set(int(c) for c in trace_counts)), dtype=np.int64)
    if counts.size == 0 or counts[0] < 4:
        raise AttackError("trace_counts must contain values >= 4")
    if counts[-1] > trace_set.n_traces:
        raise AttackError(
            f"largest subset ({counts[-1]}) exceeds the campaign size "
            f"({trace_set.n_traces})"
        )
    if n_repeats < 1:
        raise ConfigurationError("n_repeats must be >= 1")

    true_round_key = expand_last_round_key(trace_set.key)
    truth = trace_set.key if use_plaintexts else true_round_key
    data_source = trace_set.plaintexts if use_plaintexts else trace_set.ciphertexts

    rates = np.empty(counts.size, dtype=np.float64)
    mean_ranks = np.empty(counts.size, dtype=np.float64)
    for ci, n in enumerate(counts):
        successes = 0
        rank_acc: List[float] = []
        for _ in range(n_repeats):
            idx = rng.choice(trace_set.n_traces, size=int(n), replace=False)
            traces = trace_set.traces[idx]
            if preprocess is not None:
                traces = preprocess(traces)
            result = cpa_attack(
                traces, data_source[idx], byte_indices=byte_indices, model=model
            )
            ok = all(
                r.best_guess == truth[r.byte_index] for r in result.byte_results
            )
            successes += int(ok)
            rank_acc.append(
                float(
                    np.mean(
                        [r.rank_of(truth[r.byte_index]) for r in result.byte_results]
                    )
                )
            )
        rates[ci] = successes / n_repeats
        mean_ranks[ci] = float(np.mean(rank_acc))
    return SuccessRateCurve(
        trace_counts=counts,
        success_rates=rates,
        n_repeats=n_repeats,
        byte_indices=tuple(byte_indices),
        label=label,
        mean_ranks=mean_ranks,
    )


def traces_to_disclosure(
    curve: SuccessRateCurve, threshold: float = 0.8
) -> Optional[int]:
    """Module-level convenience alias of the curve method."""
    return curve.traces_to_disclosure(threshold)
