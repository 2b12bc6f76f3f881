"""Regression tests: evaluation passes must not build an autograd graph.

Evaluation never calls ``backward()``, so graph construction there is pure
overhead.  These tests plant a probe module that records whether gradient
tracking was enabled during each forward pass, and assert that every
evaluation surface — ``Worker.evaluate_loss``, the trainer's train-loss and
test-accuracy metrics — runs with gradients disabled while training steps
keep them enabled.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedules import FixedCommunicationSchedule
from repro.core.trainer import PASGDTrainer, TrainerConfig
from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.nn.layers import Linear, Module
from repro.nn.losses import bank_cross_entropy
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

F, C = 8, 3


class GradProbe(Module):
    """Identity layer that records ``is_grad_enabled()`` at each forward
    (single-replica calls run this same bank path at m=1)."""

    def __init__(self):
        super().__init__()
        self.calls: list[bool] = []

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        self.calls.append(is_grad_enabled())
        return x


class ProbedModel(Module):
    """Minimal classifier with a grad probe in its forward path."""

    def __init__(self, rng=0):
        super().__init__()
        self.probe = GradProbe()
        self.fc = Linear(F, C, rng=rng)

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return self.fc.bank_forward(self.probe.bank_forward(x, params), params, f"{prefix}fc.")

    def bank_loss(self, x, y, params) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return bank_cross_entropy(self.bank_forward(x, params), y)


def _dataset():
    return make_gaussian_blobs(
        n_samples=120, n_features=F, n_classes=C, class_sep=2.0, rng=0
    )


def test_no_grad_context_disables_graph_construction():
    t = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = (t * 2.0).sum()
    assert not out.requires_grad and out._parents == ()
    out2 = (t * 2.0).sum()
    assert out2.requires_grad


def test_worker_evaluate_loss_builds_no_graph():
    model = ProbedModel()
    worker = Worker(0, model, _dataset(), batch_size=16, lr=0.1, rng=0)
    worker.evaluate_loss()
    assert model.probe.calls == [False]
    model.probe.calls.clear()
    worker.local_step()  # training still tracks gradients
    assert model.probe.calls == [True]


def test_worker_evaluate_loss_value_unchanged_by_no_grad():
    dataset = _dataset()
    model = ProbedModel()
    worker = Worker(0, model, dataset, batch_size=16, lr=0.1, rng=0)
    expected = float(model.loss(dataset.X, dataset.y).item())
    assert worker.evaluate_loss(dataset.X, dataset.y) == expected


def _trainer(backend):
    dataset = _dataset()
    runtime = RuntimeSimulator(
        ConstantDelay(1.0), NetworkModel(1.0, "constant"), n_workers=2, rng=0
    )
    cluster = SimulatedCluster(
        lambda: ProbedModel(rng=7), dataset, runtime, n_workers=2,
        batch_size=8, lr=0.1, seed=0, backend=backend,
    )
    trainer = PASGDTrainer(
        cluster=cluster,
        schedule=FixedCommunicationSchedule(2),
        train_eval_data=(dataset.X, dataset.y),
        test_eval_data=(dataset.X, dataset.y),
        config=TrainerConfig(max_iterations=4),
    )
    return trainer, cluster


def test_trainer_eval_metrics_build_no_graph():
    trainer, cluster = _trainer("loop")
    probe = cluster.workers[0].model.probe
    probe.calls.clear()
    trainer._eval_train_loss(fallback_loss=0.0)
    trainer._eval_test_accuracy()
    assert probe.calls == [False, False]


def test_trainer_run_evaluates_without_graph_and_trains_with_it():
    trainer, cluster = _trainer("loop")
    probe = cluster.workers[0].model.probe
    probe.calls.clear()
    trainer.train()
    assert False in probe.calls  # evaluation passes ran grad-free
    assert True in probe.calls  # training steps still tracked gradients


def test_trainer_eval_no_graph_on_vectorized_backend():
    trainer, cluster = _trainer("vectorized")
    assert cluster.backend_name == "vectorized"
    probe = cluster.backend.model.probe
    probe.calls.clear()
    trainer._eval_train_loss(fallback_loss=0.0)
    trainer._eval_test_accuracy()
    assert probe.calls == [False, False]
