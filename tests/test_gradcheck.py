"""Every layer's and model's gradients against float64 finite differences.

A layer implements only ``bank_forward`` (with a hand-written VJP where it
builds its own tape node); ``Module.forward``/``Module.loss`` run it at m=1.
The equivalence matrix compares an m-stack with m independent m=1 runs of
that same code, so it cannot see a wrong VJP.  These tests can: each case
compares the autograd gradient of a scalar — a fixed random projection of a
layer's output, or a model's ``Module.loss`` — with central differences, for
the input and for every parameter.

Layers are small enough for a coordinate-wise check.  Registry models are
checked along random unit directions (the directional derivative of the loss
against ``grad · v``), which keeps the wide ``vgg_lite_*`` models fast.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro.models
import repro.nn
from repro.models.mlp import MLP
from repro.models.quadratic import NoisyQuadraticProblem, QuadraticObjective
from repro.models.registry import available_models
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.tensor import Tensor
from tests.conftest import BANK_EQUIVALENCE_LAYERS, EQUIVALENCE_FEATURES, _registry_model_fn
from tests.test_tensor_autograd import numerical_grad

ATOL, RTOL = 1e-6, 1e-5
STREAM_SEED = 5


def _reset_streams(module: Module) -> None:
    """Rewind every stream module so each evaluation draws the same masks."""
    for mod in module.stream_modules():
        mod._rng = np.random.default_rng(STREAM_SEED)


# -- layers: coordinate-wise -----------------------------------------------------

#: id -> (layer factory, input shape).  Geometries are chosen to reach the
#: branches a fixed golden run does not: padded strided conv, overlapping
#: pooling windows, batch norm in train mode, live dropout.
LAYER_CASES = {
    "linear": (lambda: Linear(4, 3, rng=0), (5, 4)),
    "linear_no_bias": (lambda: Linear(4, 3, bias=False, rng=1), (5, 4)),
    "relu": (ReLU, (4, 6)),
    "tanh": (Tanh, (4, 6)),
    "sigmoid": (Sigmoid, (4, 6)),
    "flatten": (Flatten, (3, 2, 2, 2)),
    "dropout": (lambda: Dropout(0.4, rng=0), (4, 6)),
    "sequential": (lambda: Sequential(Linear(4, 5, rng=2), Tanh(), Linear(5, 3, rng=3)), (6, 4)),
    "residual": (lambda: Residual(Sequential(Linear(4, 4, rng=4), ReLU())), (5, 4)),
    "conv_pad1_stride2": (lambda: Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=5), (2, 2, 5, 5)),
    "conv_no_bias": (lambda: Conv2d(2, 2, kernel_size=2, bias=False, rng=6), (2, 2, 4, 4)),
    "maxpool_overlap": (lambda: MaxPool2d(3, stride=2), (2, 2, 7, 7)),
    "maxpool_tiled": (lambda: MaxPool2d(2), (2, 2, 4, 4)),
    "avgpool_overlap": (lambda: AvgPool2d(2, stride=1), (2, 2, 5, 5)),
    "avgpool_tiled": (lambda: AvgPool2d(2), (2, 2, 4, 4)),
    "batchnorm_train": (lambda: BatchNorm1d(4), (6, 4)),
}


@pytest.mark.parametrize("case", sorted(LAYER_CASES))
def test_layer_gradients_match_finite_differences(case):
    factory, shape = LAYER_CASES[case]
    layer = factory()
    rng = np.random.default_rng(sum(map(ord, case)))
    x_data = rng.normal(size=shape)
    _reset_streams(layer)
    projection = Tensor(rng.normal(size=layer(Tensor(x_data)).shape))

    def objective(x) -> Tensor:
        _reset_streams(layer)
        return (layer(x) * projection).sum()

    x = Tensor(x_data.copy(), requires_grad=True)
    layer.zero_grad()
    objective(x).backward()

    def value(_=None) -> float:
        return float(objective(Tensor(x_data)).data)

    np.testing.assert_allclose(
        x.grad,
        numerical_grad(lambda arr: float(objective(Tensor(arr)).data), x_data.copy()),
        atol=ATOL, rtol=RTOL, err_msg=f"{case}: input gradient",
    )
    for name, p in layer.named_parameters():
        np.testing.assert_allclose(
            p.grad, numerical_grad(value, p.data), atol=ATOL, rtol=RTOL,
            err_msg=f"{case}: gradient of {name}",
        )


# -- models through Module.loss: random directions ------------------------------------


def _quadratic() -> NoisyQuadraticProblem:
    # Noise-free, so the surrogate's gradient is the exact gradient of the
    # value it reports (with noise it is that gradient plus a fixed draw).
    objective = QuadraticObjective.random(dim=5, rng=0, noise_std=0.0)
    return NoisyQuadraticProblem(objective, x0=np.ones(5), rng=0)


MODEL_CASES = {name: _registry_model_fn(name) for name in available_models()}
MODEL_CASES["mlp+batch_norm+dropout"] = lambda: MLP(
    EQUIVALENCE_FEATURES, 4, hidden_sizes=(6,), batch_norm=True, dropout=0.3, rng=2
)
MODEL_CASES["noisy_quadratic"] = _quadratic


def _assert_directional(value, arr: np.ndarray, grad: np.ndarray, rng, label: str) -> None:
    """Compare ``grad · v`` with the central difference of ``value`` along unit ``v``."""
    base = arr.copy()
    for _ in range(2):
        v = rng.normal(size=arr.shape)
        v /= np.linalg.norm(v)

        def along(t: np.ndarray) -> float:
            arr[...] = base + t[0] * v
            return value()

        numeric = numerical_grad(along, np.zeros(1))[0]
        arr[...] = base
        expected = float(np.sum(grad * v))
        assert abs(numeric - expected) <= ATOL + RTOL * np.linalg.norm(grad), (
            f"{label}: directional derivative {numeric!r} vs grad·v {expected!r}"
        )


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_model_loss_gradients_match_finite_differences(case):
    model = MODEL_CASES[case]()
    rng = np.random.default_rng(sum(map(ord, case)))
    x_data = rng.normal(size=(6, EQUIVALENCE_FEATURES))
    y = rng.integers(0, 4, size=6)
    if case == "linear_regression":
        y = rng.normal(size=6)
    data_free = case == "noisy_quadratic"

    def loss(x) -> Tensor:
        _reset_streams(model)
        return model.loss(None, None) if data_free else model.loss(x, y)

    x = Tensor(x_data.copy(), requires_grad=True)
    model.zero_grad()
    out = loss(x)
    assert out.shape == ()
    out.backward()

    def value() -> float:
        return float(loss(Tensor(x_data)).data)

    if not data_free:
        _assert_directional(value, x_data, x.grad, rng, f"{case}: input")
    for name, p in model.named_parameters():
        _assert_directional(value, p.data, p.grad, rng, f"{case}: {name}")


# -- coverage and the one-kernel rule ---------------------------------------------------


def _declared_names(module: Module) -> set[str]:
    """``BANK_EQUIVALENCE_LAYERS`` names a module tree instantiates (MRO-aware)."""
    names = set()
    stack = [module]
    while stack:
        mod = stack.pop()
        names.update(c.__name__ for c in type(mod).__mro__ if c.__name__ in BANK_EQUIVALENCE_LAYERS)
        stack.extend(mod._modules.values())
    return names


def test_gradcheck_covers_every_bank_layer():
    covered = set()
    for factory, _ in LAYER_CASES.values():
        covered |= _declared_names(factory())
    for factory in MODEL_CASES.values():
        covered |= _declared_names(factory())
    assert covered == set(BANK_EQUIVALENCE_LAYERS)


def _library_modules():
    for package in (repro.nn, repro.models):
        yield package
        for info in pkgutil.iter_modules(package.__path__, f"{package.__name__}."):
            yield importlib.import_module(info.name)


def test_no_library_module_overrides_forward_or_loss():
    """Only ``Module`` defines them, as the m=1 case of the bank path."""
    offenders = []
    for mod in _library_modules():
        for cls_name, cls in inspect.getmembers(mod, inspect.isclass):
            if not issubclass(cls, Module) or cls is Module or cls.__module__ != mod.__name__:
                continue
            offenders += [f"{cls_name}.{attr}" for attr in ("forward", "loss") if attr in vars(cls)]
    assert offenders == []
    assert {"forward", "loss"} <= set(vars(Module))
