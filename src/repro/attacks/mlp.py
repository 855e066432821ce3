"""Profiled MLP attack: a learned adversary on raw misaligned traces.

The deep-learning side-channel literature (ASCAD onward) shows small
multi-layer perceptrons trained on raw traces absorb misalignment that
defeats first-order statistics — exactly the mechanism RFTC relies on —
so the zoo needs one to probe whether the countermeasure's margin
survives a *learned* adversary, not just CPA and Gaussian templates.

The threat model mirrors ``repro.attacks.template``: the attacker
profiles a clone device under a known key (``train_mlp_profile``), then
condenses each victim trace to its posterior-mean HD
(:func:`mlp_expected_hd`), which :class:`~repro.pipeline.MlpAttackConsumer`
correlates against every key guess.  The network is pure numpy — one or
more ReLU hidden layers into a 9-way softmax over the last-round
Hamming-distance classes — trained by minibatch SGD with cross-entropy
loss.  Everything random (weight init, epoch shuffles)
comes from one ``SeedSequence``-derived generator and every array op
runs in float64 in a fixed order, so training is bit-reproducible:
identical inputs and config produce byte-identical weights on any host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.attacks.models import last_round_hd_table
from repro.errors import AttackError

#: Number of leakage classes: HD of one state byte is 0..8.
N_CLASSES = 9


@dataclass(frozen=True)
class MlpConfig:
    """Training knobs for the profiled MLP (defaults sized for the
    repo's laptop-scale campaigns, not ASCAD-scale GPUs).

    Attributes
    ----------
    hidden_sizes:
        Width of each ReLU hidden layer.
    epochs / batch_size / learning_rate:
        Plain minibatch SGD schedule (no momentum — fewer moving parts
        to keep bit-reproducible).
    l2:
        Weight-decay coefficient applied to the weight matrices.
    seed:
        Root of the ``SeedSequence`` that derives weight init and the
        per-epoch shuffles.  Same seed + same data = same weights, bit
        for bit.
    """

    hidden_sizes: Tuple[int, ...] = (16,)
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.05
    l2: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise AttackError("hidden_sizes must be non-empty positive ints")
        if self.epochs < 1 or self.batch_size < 1:
            raise AttackError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise AttackError("learning_rate must be positive")
        if self.l2 < 0:
            raise AttackError("l2 must be >= 0")


@dataclass
class MlpModel:
    """A trained profiled classifier (weights plus input normalization).

    Attributes
    ----------
    weights / biases:
        Layer parameters, input to output.
    mean / std:
        Per-sample standardization constants estimated on the profiling
        set and reused verbatim on the victim's traces.
    byte_index:
        The key byte the profiling labels targeted.
    config:
        The training configuration (for provenance).
    final_loss:
        Mean cross-entropy over the profiling set after the last epoch.
    """

    weights: List[np.ndarray]
    biases: List[np.ndarray]
    mean: np.ndarray
    std: np.ndarray
    byte_index: int
    config: MlpConfig = field(default_factory=MlpConfig)
    final_loss: float = float("nan")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _forward(
    model_weights: List[np.ndarray],
    model_biases: List[np.ndarray],
    x: np.ndarray,
) -> "Tuple[List[np.ndarray], np.ndarray]":
    """Hidden activations (post-ReLU) plus output log-probabilities."""
    hidden: List[np.ndarray] = []
    out = x
    for w, b in zip(model_weights[:-1], model_biases[:-1]):
        out = np.maximum(out @ w + b, 0.0)
        hidden.append(out)
    logits = out @ model_weights[-1] + model_biases[-1]
    return hidden, _log_softmax(logits)


def train_mlp_profile(
    traces: np.ndarray,
    ciphertexts: np.ndarray,
    key_byte: int,
) -> MlpModel:
    """Profile: fit the MLP to the clone device's labelled traces.

    ``key_byte`` is the *known* round-10 key byte 0 of the profiling
    device; labels are the last-round HD classes it implies.  Training
    follows the default :class:`MlpConfig`.
    """
    config = MlpConfig()
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2 or traces.shape[0] < 32:
        raise AttackError("profiling needs a (n >= 32, S) trace matrix")
    if not 0 <= key_byte <= 255:
        raise AttackError("key_byte must be a byte")
    ct = np.asarray(ciphertexts, dtype=np.uint8)
    if ct.ndim != 2 or ct.shape[1] != 16:
        raise AttackError("ciphertexts must be (n, 16) uint8")
    labels = last_round_hd_table()[ct[:, 0], key_byte].astype(np.int64)
    n, n_samples = traces.shape

    mean = traces.mean(axis=0)
    std = traces.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    x = (traces - mean) / std

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    sizes = (n_samples, *config.hidden_sizes, N_CLASSES)
    weights = [
        rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
    ]
    biases = [np.zeros(fan_out) for fan_out in sizes[1:]]

    lr = config.learning_rate
    final_loss = float("nan")
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            xb, yb = x[batch], labels[batch]
            m = xb.shape[0]
            hidden, log_probs = _forward(weights, biases, xb)
            epoch_loss -= float(log_probs[np.arange(m), yb].sum())
            # Backward: softmax + cross-entropy gives (p - onehot) / m.
            grad = np.exp(log_probs)
            grad[np.arange(m), yb] -= 1.0
            grad /= m
            activations = [xb, *hidden]
            for layer in range(len(weights) - 1, -1, -1):
                a = activations[layer]
                gw = a.T @ grad + config.l2 * weights[layer]
                gb = grad.sum(axis=0)
                if layer > 0:
                    grad = (grad @ weights[layer].T) * (hidden[layer - 1] > 0)
                weights[layer] -= lr * gw
                biases[layer] -= lr * gb
        final_loss = epoch_loss / n
    return MlpModel(
        weights=weights,
        biases=biases,
        mean=mean,
        std=std,
        byte_index=0,
        config=config,
        final_loss=final_loss,
    )


def mlp_classify(model: MlpModel, traces: np.ndarray) -> np.ndarray:
    """Per-trace class log-probabilities, shape ``(n, 9)``."""
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2:
        raise AttackError("traces must be (n, S)")
    if traces.shape[1] != model.mean.shape[0]:
        raise AttackError(
            f"trace length {traces.shape[1]} does not match the profiled "
            f"model ({model.mean.shape[0]} samples)"
        )
    x = (traces - model.mean) / model.std
    _hidden, log_probs = _forward(model.weights, model.biases, x)
    return log_probs


def mlp_expected_hd(model: MlpModel, traces: np.ndarray) -> np.ndarray:
    """Posterior-mean HD per trace, shape ``(n,)``.

    ``E[HD | trace] = sum_c c * p(c | trace)`` condenses the classifier's
    output into one denoised leakage value per trace — the feature the
    streaming consumer feeds to an
    :class:`~repro.attacks.incremental.IncrementalCpa` as a one-sample
    trace.
    """
    log_probs = mlp_classify(model, traces)
    return np.exp(log_probs) @ np.arange(N_CLASSES, dtype=np.float64)
