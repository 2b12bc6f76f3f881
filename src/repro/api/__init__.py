"""``repro.api`` — the unified registry + declarative experiment surface.

Everything the experiment harness composes — models, datasets, delay
distributions, network scalings, communication schedules, learning-rate
schedules — is resolved *by name* through the registries defined here, and a
whole experiment is therefore plain data: an :class:`ExperimentConfig` that
round-trips through JSON, or a fluent :class:`Experiment` builder chain::

    from repro.api import Experiment

    store = (
        Experiment("smoke")
        .model("vgg_lite_cnn")
        .delay("pareto")
        .methods("sync-sgd", "adacomm")
        .run()
    )

Third-party components plug in with one decorator::

    from repro.api import DELAYS

    @DELAYS.register("bimodal")
    class BimodalDelay(DelayDistribution):
        ...

Every name is imported lazily (:mod:`repro._lazy`), so ``repro.api`` itself
stays import-cycle-free with the subpackages that register into it.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".registry": ("Registry", "filter_kwargs"),
    ".registries": (
        "MODELS",
        "DATASETS",
        "DELAYS",
        "NETWORK_SCALINGS",
        "COMM_SCHEDULES",
        "LR_SCHEDULES",
        "BACKENDS",
        "SWEEPS",
        "all_registries",
    ),
    ".experiment": ("Experiment",),
})
