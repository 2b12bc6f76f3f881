"""Experiment harness: configs, runners, and paper-style tables/figures.

``configs`` defines the named experiment settings (vgg-lite / resnet-lite,
4 / 8 workers, fixed / variable learning rate) whose delay parameters are
calibrated to the paper's Figure 8 communication/computation ratios.
``harness`` runs a set of methods (fully synchronous SGD, fixed-τ PASGD,
ADACOMM) under one config and collects their :class:`RunRecord` trajectories.
``tables`` and ``figures`` turn stores of run records into the text tables
and data series that the benchmark targets print.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".configs": ("ExperimentConfig", "make_config", "available_configs", "config_spec"),
    ".harness": ("MethodSpec", "parse_method_spec", "run_experiment", "run_method", "default_methods"),
    ".tables": (
        "format_table",
        "accuracy_table",
        "speedup_table",
        "time_to_loss_table",
        "sweep_summary_table",
    ),
    ".figures": (
        "loss_vs_time_series",
        "tau_vs_time_series",
        "comm_comp_breakdown",
        "sweep_loss_curves",
        "sweep_error_runtime_frontier",
    ),
})
