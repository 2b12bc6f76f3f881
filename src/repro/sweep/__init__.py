"""``repro.sweep`` — parallel experiment campaigns over a persistent store.

The paper's artifacts (error-vs-runtime curves, variable-τ vs fixed-τ
comparisons, scaling sweeps over m) are *campaigns* of many seeded runs.
This package makes a campaign a first-class, declarative object:

* :class:`SweepSpec` — a base :class:`~repro.experiments.configs.ExperimentConfig`
  plus :func:`grid` (cross-product) or :func:`paired` (zipped) axes,
  expanding into content-addressed cells; ``spec.random(n, seed)`` keeps a
  seeded random-search subsample of the expansion;
* :class:`ResultStore` — a persistent on-disk store keyed by the hash of
  each cell's canonical config dict, so completed cells are never re-run
  and a killed campaign resumes for free; ``query`` filters manifest cells
  by recorded axis overrides, ``merge_from`` unions stores from different
  machines, and ``gc`` prunes cells no manifest references (all also on the
  CLI: ``python -m repro.sweep {query,merge,gc}``);
* :class:`SweepRunner` / :func:`run_sweep` — serial or process-parallel
  execution with live progress and a :class:`SweepReport`;
* named campaigns in the ``SWEEPS`` registry (``repro.sweep.campaigns``).

Quickstart::

    from repro.sweep import SweepSpec, grid, run_sweep
    from repro import make_config

    spec = SweepSpec("my_tau_sweep", make_config("smoke"), grid(tau=[1, 8], seed=[0, 1]))
    report = run_sweep(spec, store="sweeps", jobs=4)
    for cell in report.results():
        print(cell.label, cell.runs.names())

Re-running the same spec against the same store executes zero cells — every
address is already populated — and the figure/table helpers in
``repro.experiments`` render from the store alone.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".spec": ("SweepSpec", "SweepCell", "grid", "paired", "cell_hash", "derive_cell_seed"),
    ".store": ("ResultStore", "CellResult", "MergeReport", "QueryHit"),
    ".runner": ("SweepRunner", "SweepReport", "run_sweep"),
})
