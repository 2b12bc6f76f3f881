"""Executing sweep campaigns: process-parallel, resumable, deterministic.

:class:`SweepRunner` takes a :class:`~repro.sweep.spec.SweepSpec`, expands it
into content-addressed cells, skips every cell already present in the
:class:`~repro.sweep.store.ResultStore`, and executes the rest — either
serially in-process or on a ``multiprocessing`` pool (``jobs > 1``).

Worker processes receive only JSON-compatible payloads (the cell's config
dict and run seed); each worker rebuilds its ``ExperimentConfig`` through
``from_dict``, which re-resolves every component name against the registries
*in that process* — so spawned interpreters (the default start method, and
the only one available on Windows/macOS) work without any pickled model or
registry state.  Results come back to the parent, which is the only writer
to the store; because cells are pure functions of their config (seeded NumPy
end to end), pool scheduling order cannot change any stored byte.

A killed or partially-completed campaign resumes for free: re-running the
same spec executes only the cells whose result files are missing or
unreadable.  Each skipped cell is read once, while deciding to skip it, and
kept in the report, so rendering from the report reads nothing twice.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.metrics import counter_inc
from repro.obs.tracer import instant
from repro.sweep.spec import SweepCell, SweepSpec
from repro.sweep.store import CellResult, ResultStore
from repro.utils.logging import get_logger

__all__ = ["SweepRunner", "SweepReport", "run_sweep"]

logger = get_logger("sweep.runner")


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` invocation.

    ``executed`` / ``cached`` / ``failed`` partition the campaign's cell
    addresses: freshly run this invocation, already present in the store
    (skipped), and raised during execution (error text kept per address).
    ``loaded`` holds the cached cells as read while deciding to skip them.
    """

    sweep: str
    store: ResultStore
    cells: list[SweepCell]
    executed: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    loaded: dict[str, CellResult] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        """One stable status line (CI greps ``executed=...`` / ``cached=...``)."""
        return (
            f"[sweep] {self.sweep}: total={self.total} executed={len(self.executed)} "
            f"cached={len(self.cached)} failed={len(self.failed)} store={self.store.root}"
        )

    def cell(self, address: str) -> CellResult:
        """One stored cell: the copy read while skipping it, else the store's."""
        loaded = self.loaded.get(address)
        return loaded if loaded is not None else self.store.cell(address)

    def results(self):
        """Iterate the campaign's stored :class:`CellResult` objects."""
        for c in self.cells:
            if c.address in self.store:
                yield self.cell(c.address)


def _execute_cell(
    payload: dict[str, Any], backend_handle=None
) -> tuple[str, "dict | None", "str | None", "dict | None"]:
    """Run one cell in the current process.

    Returns ``(address, result, error, metrics)``: the result payload, a
    traceback string on failure, and (only when the payload asks for
    ``collect_metrics``) a metrics snapshot from a per-cell registry.
    Metrics are opt-in so the default path stores exactly the bytes it
    always has; the snapshot is the store's *sidecar* content, never part of
    ``result.json``.

    Module-level (picklable) so it works under every multiprocessing start
    method.  Imports are local so a spawned interpreter pays them lazily and
    the registries repopulate inside the worker.  ``backend_handle`` (serial
    path only — handles do not cross process boundaries) lets consecutive
    cells reuse one sharded process pool; the runner owns its lifetime.
    """
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.harness import run_experiment
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import span

    address = payload["address"]
    try:
        # The config dict already carries the cell's run seed (the spec folds
        # derived seeds back in), so the address is the hash of what runs.
        config = ExperimentConfig.from_dict(payload["config"])
        # The span records under the parent's tracer on the serial path;
        # pooled workers have no active tracer, so it costs nothing there.
        with span("sweep_cell", address=address, experiment=config.name):
            if payload.get("collect_metrics"):
                with MetricsRegistry() as registry:
                    runs = run_experiment(config, backend_handle=backend_handle)
                return address, runs.to_payload(), None, registry.snapshot()
            runs = run_experiment(config, backend_handle=backend_handle)
        return address, runs.to_payload(), None, None
    except Exception:  # noqa: BLE001 - one bad cell must not sink the campaign
        return address, None, traceback.format_exc(), None


def _cell_payload(cell: SweepCell, collect_metrics: bool = False) -> dict[str, Any]:
    return {
        "address": cell.address,
        "config": cell.config.to_dict(),
        "run_seed": cell.run_seed,
        "collect_metrics": collect_metrics,
    }


def _cell_meta(cell: SweepCell) -> dict[str, Any]:
    return {
        "name": cell.config.name,
        "overrides": dict(cell.overrides),
        "run_seed": cell.run_seed,
        "config": cell.config.to_dict(),
    }


class SweepRunner:
    """Run campaigns against a persistent store, in parallel when asked.

    Parameters
    ----------
    store:
        A :class:`ResultStore` or a directory path for one.
    jobs:
        Worker processes; ``1`` (default) runs serially in-process, which is
        also the automatic fallback when only one cell is pending.
    mp_context:
        Multiprocessing start method (default ``"spawn"`` — the portable
        choice, and the one that genuinely exercises in-worker registry
        re-resolution; ``"fork"`` is faster on Linux if startup dominates).
    progress:
        Optional callable receiving one line per cell event (the CLI passes
        ``print``); campaign progress also goes to the module logger.
    collect_metrics:
        Run each cell under a fresh metrics registry and persist its
        snapshot as the cell's ``metrics.json`` sidecar (see
        :meth:`ResultStore.put_metrics`).  Off by default so the stored
        result bytes — and the parallel==serial byte-equality guarantee on
        them — are untouched by telemetry.
    """

    def __init__(
        self,
        store: "ResultStore | str | Path",
        jobs: int = 1,
        mp_context: str = "spawn",
        progress: "Callable[[str], None] | None" = None,
        collect_metrics: bool = False,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.jobs = int(jobs)
        self.mp_context = mp_context
        self._progress = progress
        self.collect_metrics = bool(collect_metrics)

    def _emit(self, message: str) -> None:
        logger.info("%s", message)
        if self._progress is not None:
            self._progress(message)

    def run(self, spec: SweepSpec) -> SweepReport:
        """Execute every missing cell of ``spec``; returns the report.

        Duplicate addresses (axes that collapse to the same config) are
        executed once.  Failed cells are reported, not raised — inspect
        ``report.failed`` or check ``report.ok``.
        """
        cells = spec.cells()
        unique: dict[str, SweepCell] = {}
        for cell in cells:
            unique.setdefault(cell.address, cell)
        if len(unique) < len(cells):
            self._emit(
                f"[sweep] {spec.name}: {len(cells) - len(unique)} duplicate "
                f"cell(s) collapsed by content address"
            )

        report = SweepReport(sweep=spec.name, store=self.store, cells=cells)
        # The manifest is a pure function of the spec, so record it *before*
        # executing anything: an interrupted campaign's completed cells stay
        # referenced (store.gc never collects them) and the resume picks up
        # exactly the missing addresses.
        self.store.write_manifest(
            spec.name,
            {
                "name": spec.name,
                "seed_mode": spec.seed_mode,
                "axes": {k: list(v) for k, v in spec.axes.items()},
                "cells": [
                    {"address": c.address, "overrides": dict(c.overrides)}
                    for c in cells
                ],
            },
        )
        pending: list[SweepCell] = []
        for cell in unique.values():
            stored = self.store.load(cell.address)
            if stored is not None:
                report.loaded[cell.address] = stored
                report.cached.append(cell.address)
                counter_inc("sweep_cells_cached_total")
                instant("sweep_cell", address=cell.address, status="cached")
                self._emit(f"[sweep] cached   {cell.address}  {cell.label}")
            else:
                pending.append(cell)

        if pending:
            self._emit(
                f"[sweep] {spec.name}: running {len(pending)}/{len(unique)} cell(s) "
                f"with jobs={min(self.jobs, len(pending))}"
            )
        by_address = {cell.address: cell for cell in pending}
        for address, result_payload, error, metrics in self._execute(pending):
            cell = by_address[address]
            if error is not None:
                report.failed[address] = error
                counter_inc("sweep_cells_failed_total")
                instant("sweep_cell", address=address, status="failed")
                self._emit(f"[sweep] FAILED   {address}  {cell.label}")
                logger.error("cell %s failed:\n%s", address, error)
                continue
            self.store.put(address, _cell_meta(cell), result_payload)
            if metrics is not None:
                self.store.put_metrics(address, metrics)
            report.executed.append(address)
            counter_inc("sweep_cells_executed_total")
            instant("sweep_cell", address=address, status="executed")
            self._emit(f"[sweep] executed {address}  {cell.label}")

        self._emit(report.summary())
        return report

    def _execute(self, pending: list[SweepCell]):
        """Yield ``(address, payload, error, metrics)`` for each pending cell."""
        payloads = [_cell_payload(cell, self.collect_metrics) for cell in pending]
        if not payloads:
            return
        jobs = min(self.jobs, len(payloads))
        if jobs == 1:
            # Serial path: when every pending cell selects its backend the
            # same way, one BackendHandle spans the whole campaign, so a
            # sharded pool spawned by the first cell is rebuilt in place by
            # each subsequent one (byte-identical results either way; see
            # repro.distributed.reuse).  Mixed-backend campaigns fall back
            # to the per-lineup handle run_experiment creates itself.
            from repro.distributed.reuse import BackendHandle

            base = pending[0].config
            layout = (base.backend, base.backend_shards, base.auto_shard_threshold)
            shared = all(
                (c.config.backend, c.config.backend_shards, c.config.auto_shard_threshold)
                == layout
                for c in pending
            )
            handle = (
                BackendHandle(
                    base.backend,
                    n_shards=base.backend_shards,
                    auto_shard_threshold=base.auto_shard_threshold,
                )
                if shared
                else None
            )
            try:
                for payload in payloads:
                    yield _execute_cell(payload, backend_handle=handle)
            finally:
                if handle is not None:
                    handle.close()
            return
        ctx = multiprocessing.get_context(self.mp_context)
        with ctx.Pool(processes=jobs) as pool:
            yield from pool.imap_unordered(_execute_cell, payloads)


def run_sweep(
    spec: SweepSpec,
    store: "ResultStore | str | Path",
    jobs: int = 1,
    progress: "Callable[[str], None] | None" = None,
    collect_metrics: bool = False,
) -> SweepReport:
    """One-call convenience wrapper: ``run_sweep(spec, "sweeps", jobs=4)``."""
    return SweepRunner(
        store, jobs=jobs, progress=progress, collect_metrics=collect_metrics
    ).run(spec)
