"""Loss functions and classification metrics."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = [
    "softmax",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "mse_loss",
    "accuracy",
    "bank_cross_entropy",
    "bank_mse_loss",
]


def _lift(value):
    """Give one replica's batch the leading worker axis of an m=1 bank."""
    if value is None:
        return None
    if isinstance(value, Tensor):
        return value.reshape(1, *value.shape)
    return np.asarray(value)[None]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood of integer ``targets`` given row log-probabilities."""
    if log_probs.ndim != 2:
        raise ValueError("nll_loss expects (N, C) log-probabilities")
    return _bank_nll(_lift(log_probs), _lift(targets)).reshape(())


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer class ``targets`` given raw ``logits``.

    The m=1 case of :func:`bank_cross_entropy`.
    """
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects (N, C) logits")
    return bank_cross_entropy(_lift(logits), _lift(targets)).reshape(())


def bank_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-worker mean cross-entropy of stacked ``(m, B, C)`` logits.

    Returns an ``(m,)`` tensor whose i-th entry equals
    ``cross_entropy(logits[i], targets[i])``; summing it and calling
    ``backward()`` therefore deposits each worker's own batch gradient into
    its slice of the parameter bank (the cross-worker terms are identically
    zero because worker i's loss depends only on slice i).
    """
    if logits.ndim != 3:
        raise ValueError("bank_cross_entropy expects (m, B, C) logits")
    return _bank_nll(log_softmax(logits, axis=-1), targets)


def _bank_nll(log_probs: Tensor, targets) -> Tensor:
    """Per-worker mean NLL of stacked ``(m, B, C)`` log-probabilities."""
    targets = np.asarray(targets, dtype=np.int64)
    m, batch, _ = log_probs.shape
    if targets.shape != (m, batch):
        raise ValueError(
            f"targets shape {targets.shape} does not match stacked batch ({m}, {batch})"
        )
    workers = np.arange(m)[:, None]
    rows = np.arange(batch)[None, :]
    picked = log_probs[workers, rows, targets]  # (m, B)
    return -picked.mean(axis=1)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error ``mean((pred - target)^2)``: :func:`bank_mse_loss` at m=1."""
    return bank_mse_loss(_lift(pred), _lift(target)).reshape(())


def bank_mse_loss(pred: Tensor, target) -> Tensor:
    """Per-worker mean squared error of stacked ``(m, ...)`` predictions."""
    if not isinstance(target, Tensor):
        target = Tensor(target)
    if pred.ndim < 2:
        raise ValueError("bank_mse_loss expects (m, ...) predictions")
    diff = pred - target
    return (diff * diff).mean(axis=tuple(range(1, pred.ndim)))


def accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if scores.ndim != 2:
        raise ValueError("accuracy expects (N, C) scores")
    preds = scores.argmax(axis=1)
    return float((preds == targets).mean())
