"""Linear models: softmax (multinomial logistic) regression and linear regression.

These are the cheapest trainable models in the zoo and the default workload
for the fast benchmark targets: their loss surface is convex, so the
error-floor behaviour predicted by Theorem 1 is clean and easy to verify.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear, Module
from repro.nn.losses import bank_cross_entropy, bank_mse_loss
from repro.nn.tensor import Tensor

__all__ = ["SoftmaxRegression", "LinearRegressionModel"]


class SoftmaxRegression(Module):
    """Multinomial logistic regression: a single linear layer + cross-entropy."""

    def __init__(self, n_features: int, n_classes: int, rng=None):
        super().__init__()
        self.n_features = n_features
        self.n_classes = n_classes
        self.fc = Linear(n_features, n_classes, rng=rng)

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        x = self._as_bank_input(x)
        return self.fc.bank_forward(x, params, f"{prefix}fc.")

    def bank_loss(self, x, y: np.ndarray, params) -> Tensor:
        return bank_cross_entropy(self.bank_forward(x, params), y)


class LinearRegressionModel(Module):
    """Least-squares linear regression: a single linear layer + MSE."""

    def __init__(self, n_features: int, n_outputs: int = 1, rng=None):
        super().__init__()
        self.n_features = n_features
        self.n_outputs = n_outputs
        self.fc = Linear(n_features, n_outputs, rng=rng)

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        x = self._as_bank_input(x)
        return self.fc.bank_forward(x, params, f"{prefix}fc.")

    def bank_loss(self, x, y, params) -> Tensor:
        pred = self.bank_forward(x, params)
        target = np.asarray(y, dtype=float)
        if target.ndim == 2:  # (m, B) targets -> (m, B, 1)
            target = target[..., None]
        return bank_mse_loss(pred, target)
