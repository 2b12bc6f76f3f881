"""Simulated distributed training substrate.

The paper runs 4–8 GPU nodes connected by 40 Gbps Ethernet; this package
simulates that cluster in-process.  Each :class:`~repro.distributed.worker.Worker`
holds its own model replica, data shard, and local optimizer and performs
local mini-batch SGD steps (eq. 2/3).  The
:class:`~repro.distributed.cluster.SimulatedCluster` owns the workers, the
model-averaging collective (eq. 3, ``k mod τ = 0`` branch), and the virtual
wall clock driven by the runtime simulator (``repro.runtime``), so that every
training run yields loss-versus-*wall-clock-time* trajectories exactly like
the paper's figures.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".worker": ("Worker",),
    ".averaging": ("average_states", "weighted_average_states"),
    ".backends": ("BackendUnsupported", "WorkerBackend", "LoopWorkers"),
    ".worker_bank": ("WorkerBank", "BankWorkerView"),
    ".transport": ("ShmStatePlane", "resolve_transport", "shm_available"),
    ".sharded_bank": ("ShardedBank", "ShardWorkerView", "shard_slices"),
    ".reuse": ("BackendHandle", "resolve_backend"),
    ".cluster": ("SimulatedCluster",),
    ".events": ("CommunicationEvent", "LocalPeriodEvent", "EventLog"),
    ".topology": (
        "complete_mixing_matrix",
        "ring_mixing_matrix",
        "star_mixing_matrix",
        "metropolis_hastings_weights",
        "spectral_gap",
        "mix_states",
        "consensus_distance",
        "rounds_to_consensus",
    ),
})
