"""repro — reproduction of ADACOMM (Wang & Joshi, MLSys 2019).

"Adaptive Communication Strategies to Achieve the Best Error-Runtime
Trade-off in Local-Update SGD" analyses periodic-averaging SGD (PASGD) in
terms of error versus *wall-clock time* and proposes ADACOMM, an adaptive
communication-period schedule.  This package implements the full system from
scratch on NumPy: the autograd/NN substrate, a simulated multi-worker cluster
with a stochastic delay model, PASGD with fixed and adaptive communication
periods, block momentum, the paper's theoretical bounds, and an experiment
harness that regenerates every table and figure of the evaluation section.

Every pluggable component — models, datasets, delay distributions, network
scalings, communication schedules, LR schedules — is resolved by name through
the registries in :mod:`repro.api`, so experiments are data: compose them
with the fluent :class:`Experiment` builder, serialize them with
``ExperimentConfig.to_dict()``/``from_dict()``, or run them from the CLI
(``python -m repro --config smoke --model vgg_lite_cnn --set n_workers=4``).

Quickstart
----------
>>> from repro import make_config, run_experiment
>>> config = make_config("smoke")
>>> store = run_experiment(config)
>>> sorted(store.names())  # doctest: +ELLIPSIS
['adacomm', ...]

Or declaratively, composing any registered model × dataset × delay × method
lineup:

>>> from repro import Experiment
>>> store = (
...     Experiment("smoke")
...     .model("vgg_lite_cnn")
...     .delay("pareto")
...     .methods("sync-sgd", "adacomm")
...     .run()
... )
>>> sorted(store.names())
['adacomm', 'sync-sgd']
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("Experiment", "Registry"),
    ".core": (
        "AdaCommConfig",
        "AdaCommController",
        "AdaCommSchedule",
        "FixedCommunicationSchedule",
        "SequenceCommunicationSchedule",
        "PASGDTrainer",
        "TrainerConfig",
        "TheoreticalConstants",
        "basic_tau_update",
        "refined_tau_update",
        "lr_coupled_tau_update",
        "error_runtime_bound",
        "optimal_communication_period",
    ),
    ".distributed": ("SimulatedCluster", "Worker"),
    ".experiments": (
        "ExperimentConfig",
        "available_configs",
        "config_spec",
        "default_methods",
        "make_config",
        "parse_method_spec",
        "run_experiment",
        "run_method",
    ),
    ".optim": ("SGD", "BlockMomentum", "ConstantLR", "MultiStepLR", "TauGatedStepLR"),
    ".runtime": (
        "ConstantDelay",
        "ExponentialDelay",
        "NetworkModel",
        "RuntimeModel",
        "RuntimeSimulator",
        "speedup_constant_delays",
    ),
    ".obs": ("MetricsRegistry", "Tracer", "read_trace"),
    ".utils": ("RunRecord", "RunStore"),
    ".sweep": ("SweepSpec", "ResultStore", "SweepRunner", "run_sweep", "grid", "paired"),
})
__all__.append("__version__")
