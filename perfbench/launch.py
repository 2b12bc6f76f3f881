"""Run ``python -m repro <args>`` in this process, with benchmark probes.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    PERFBENCH_REPORT=report.json PERFBENCH_TRACE=0 PERFBENCH_MARKS=local_period \
        python perfbench/launch.py --config smoke

The process is an ordinary ``python -m repro`` run: this file imports the
CLI, installs probes by wrapping functions of the program's layers,
then executes ``repro.__main__`` through :mod:`runpy` so the run — including
the ``__main__`` module that spawned children see — is the CLI's own.  No
file under ``src/`` is changed.

Probes
------
* Always: a one-shot *first unit of work* mark — the first local period
  (``SimulatedCluster.run_local_period``), the first campaign cell result
  (``SweepRunner._execute`` yields it), or the first store read, as
  ``$PERFBENCH_MARKS`` selects (see :data:`WORK_MARKS`).  The driver turns
  it into ``setup_s``.
* ``PERFBENCH_TRACE=1``: a span around every call listed in :data:`HOOKS`.
  A layer's *self* time is its span minus the spans nested inside it, so
  the self times of all layers never overlap.  Only the main thread is
  traced.  Work done in shard processes and sweep-pool children is not
  traced there; it appears as parent-side wait in
  ``distributed.local_period`` and ``sweep.cell_wait``.

The report written to ``$PERFBENCH_REPORT`` holds absolute
``time.monotonic()`` stamps (CLOCK_MONOTONIC is system-wide on Linux, so the
parent can subtract its own spawn stamp) and, when tracing, per-layer self
seconds, call counts and byte counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import runpy
import sys
import threading
import time
from collections import defaultdict

# (layer, module, attribute path).  A path naming a class method patches the
# class; a module-level function is patched in every loaded ``repro``
# module that imported it by name.
HOOKS: list[tuple[str, str, str]] = [
    ("data.build", "repro.experiments.configs", "ExperimentConfig.build_dataset"),
    ("data.build", "repro.data.synthetic", "Dataset.split"),
    ("data.build", "repro.data.partition", "partition_dataset"),
    ("data.loader", "repro.data.bank_loader", "BankLoader.next_batches"),
    ("data.loader", "repro.data.loader", "BatchLoader.next_indices"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    ("optim.step", "repro.optim.bank_sgd", "BankSGD.step"),
    ("optim.step", "repro.optim.sgd", "SGD.step"),
    ("runtime.sample", "repro.runtime.simulator", "RuntimeSimulator.sample_local_period"),
    ("runtime.sample", "repro.runtime.simulator", "RuntimeSimulator.sample_async_period"),
    ("runtime.sample", "repro.runtime.simulator", "RuntimeSimulator.sample_communication"),
    ("distributed.setup", "repro.distributed.reuse", "resolve_backend"),
    ("distributed.teardown", "repro.distributed.reuse", "BackendHandle.close"),
    ("distributed.teardown", "repro.distributed.cluster", "SimulatedCluster.close"),
    ("distributed.local_period", "repro.distributed.cluster", "SimulatedCluster.run_local_period"),
    ("distributed.local_period", "repro.distributed.cluster", "SimulatedCluster.run_async_round"),
    ("distributed.average", "repro.distributed.cluster", "SimulatedCluster.average_models"),
    ("core.eval", "repro.core.trainer", "PASGDTrainer._eval_train_loss"),
    ("core.eval", "repro.core.trainer", "PASGDTrainer._eval_test_accuracy"),
    ("sweep.pool_setup", "multiprocessing.context", "BaseContext.Pool"),
    ("sweep.cell_wait", "repro.sweep.runner", "SweepRunner._execute"),
    ("sweep.store_write", "repro.sweep.store", "_dump_json"),
    ("sweep.store_read", "repro.sweep.store", "_load_json"),
    ("sweep.store_read", "repro.sweep.store", "ResultStore.addresses"),
    ("sweep.store_read", "repro.sweep.store", "ResultStore.__contains__"),
    ("sweep.store_read", "repro.sweep.store", "ResultStore.meta"),
    ("sweep.store_read", "repro.sweep.store", "ResultStore.runs"),
    ("experiments.render", "repro.utils.results", "RunStore.speedup"),
    ("experiments.save", "repro.utils.results", "RunStore.save"),
]

# Every public function of these modules is a rendering step.
RENDER_MODULES = ("repro.experiments.tables", "repro.experiments.figures")

# What counts as the first unit of work, selected by ``$PERFBENCH_MARKS``
# (comma-separated): the start of the first local period, the arrival of the
# first campaign cell result, or the first store read.
WORK_MARKS = {
    "local_period": {
        ("repro.distributed.cluster", "SimulatedCluster.run_local_period"),
        ("repro.distributed.cluster", "SimulatedCluster.run_async_round"),
    },
    "cell_result": {("repro.sweep.runner", "SweepRunner._execute")},
    "store_read": {
        ("repro.sweep.store", "_load_json"),
        ("repro.sweep.store", "ResultStore.__contains__"),
    },
}

# Store file functions whose first argument is the path: its size is the
# layer's byte count.
BYTE_COUNTED = {"_dump_json", "_load_json"}


class Probe:
    """Span recorder with per-layer self time, call and byte counts."""

    def __init__(self, trace: bool, marks: "set[tuple[str, str]]"):
        self.trace = trace
        self.marks = marks
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.first_work: "float | None" = None
        self._stack: list[list] = []  # [layer, start, time covered by children]
        self._main = threading.get_ident()

    def mark_work(self) -> None:
        if self.first_work is None:
            self.first_work = time.monotonic()

    def _enter(self, layer: str) -> "list | None":
        if threading.get_ident() != self._main:
            return None
        if self._stack and self._stack[-1][0] == layer:
            return None  # a layer re-entering itself is one span
        frame = [layer, time.monotonic(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: "list | None") -> None:
        if frame is None:
            return
        duration = time.monotonic() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, layer: str, fn, *, work: bool, size_of_path: bool):
        probe = self
        if inspect.isgeneratorfunction(fn):
            # Each resume of the generator is one span: the caller waits there.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = probe._enter(layer) if probe.trace else None
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            probe._exit(frame)
                        if work:
                            probe.mark_work()
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work:
                probe.mark_work()
            if not probe.trace:
                return fn(*args, **kwargs)
            frame = probe._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                probe._exit(frame)
                if size_of_path:
                    try:
                        probe.bytes[layer] += os.path.getsize(args[0])
                    except OSError:
                        pass

        return wrapper

    def report(self) -> dict:
        return {
            "first_work": self.first_work,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "bytes": dict(self.bytes),
        }


def _patch(probe: Probe, layer: str, module_name: str, path: str) -> None:
    module = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    work = (module_name, path) in probe.marks
    if not probe.trace and not work:
        return
    wrapped = probe.wrap(layer, original, work=work, size_of_path=attr in BYTE_COUNTED)
    setattr(owner, attr, wrapped)
    if owner is module:
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "") or ""
            if name.startswith("repro") and getattr(other, "__dict__", {}).get(attr) is original:
                setattr(other, attr, wrapped)


def install(probe: Probe) -> None:
    """Wrap every hooked function (only the work marks when not tracing)."""
    for layer, module_name, path in HOOKS:
        _patch(probe, layer, module_name, path)
    if not probe.trace:
        return
    for module_name in RENDER_MODULES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(module.__dict__.get(name)):
                _patch(probe, "experiments.render", module_name, name)
    # Training forward + loss: every model class with its own bank_loss.
    importlib.import_module("repro.models")
    from repro.nn.layers import Module

    pending = [Module]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "bank_loss" in cls.__dict__ and cls is not Module:
            _patch(probe, "nn.forward_loss", cls.__module__, f"{cls.__qualname__}.bank_loss")


def main() -> None:
    report_path = os.environ["PERFBENCH_REPORT"]
    marks = set()
    for mark in filter(None, os.environ.get("PERFBENCH_MARKS", "").split(",")):
        marks |= WORK_MARKS[mark]
    probe = Probe(trace=os.environ.get("PERFBENCH_TRACE") == "1", marks=marks)
    importlib.import_module("repro.experiments.cli")
    t_imported = time.monotonic()
    install(probe)
    t_installed = time.monotonic()
    code: "int | str | None" = 0
    try:
        # alter_sys: repro.__main__ becomes sys.modules["__main__"] (so spawned
        # children do not re-import this file) and sys.argv[0] its path.
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"t_imported": t_imported, "t_installed": t_installed, **probe.report()}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
