"""End-to-end benchmark of the ``python -m repro`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_cnn --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one table each
    python3 perfbench/run.py --write-manifest            # regenerate BENCHMARK.json
    python3 perfbench/run.py --write-pins                # re-pin the output digests

Each workload is one or more real ``python -m repro`` processes (started
through ``perfbench/launch.py``, which adds only probes).  A run repeats the
workload for ``--seconds`` seconds and reports medians over the repeats.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in :data:`END_TO_END`,
medians over the repeats:

* ``wall_s``: process start to exit, summed over the workload's commands;
* ``setup_s``: process start to the first unit of work — the first local
  period, the first cell result where cells run in pool children, the first
  store read on replay — summed likewise;
* ``samples_per_s``: local-SGD samples behind the workload's results over
  ``wall_s - setup_s`` (on ``campaign_replay``: the samples of the cells it
  serves from the store);
* ``peak_rss_mb``: the largest resident set of any process, children included;
* ``adacomm_speedup_x``: AdaComm over sync SGD at the CLI's default target
  loss — at the reference seed, or the median over the seeds of the
  ``variable_vs_fixed_tau`` campaign.

The failure share is printed as ``failed_frac``; the JSON carries it as
``attempted``/``failed`` because every metric there must be non-zero.  With
``--trace 1`` the metrics are the per-layer self times, call and byte counts
and analytical floors of :func:`per_layer_metrics`, from traced repeats that
alternate with untraced ones (their difference is the tracing overhead).

Inputs come from ``--seed``: the single-config workloads alternate between
the pinned reference seed (checked against digests pinned in
``perfbench/pins.json``; it also gives the deterministic
``adacomm_speedup_x``) and ``--set seed=<seed>`` (digest recorded, and
checked for repeatability within the run).  Campaign cells take their seeds
from the registered specs, so every seed checks against the pins.

An operation is one method run or one campaign cell.  It fails on a digest
mismatch, a non-zero exit, a ``FAILED`` cell, a process timeout, or — counted
once each — a shared-memory segment or child process left behind.  No BLAS
thread variable is set, so an in-program thread policy can show a gain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launch.py"
PINS = BENCH_DIR / "pins.json"
WORK_ROOT = ROOT / ".perfbench_work"
SHM = Path("/dev/shm")

REFERENCE_SEED = 1
RUN_SECONDS = 20
HARD_LIMIT_S = 165.0  # the whole run, set-up included, ends before this
PROCESS_TIMEOUT_S = 60.0
MIN_REPEATS = 3
LEAK_GRACE_S = 2.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

CAMPAIGNS = ("tau_error_runtime", "variable_vs_fixed_tau", "worker_scaling", "method_family_frontier")
SPEEDUP_CAMPAIGN = "variable_vs_fixed_tau"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    marks: str  # what ends set-up: see WORK_MARKS in launch.py
    cli: tuple[str, ...] = ()  # single-config workloads: the CLI arguments
    fresh_store: bool = False  # campaign workloads: cold (fresh) or replayed store


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_cnn",
            "one process, 4 methods at m=4 on the conv/im2col path: nn, optim, data and eval "
            "(about 3/4 of wall) are all visible in the parent",
            "local_period",
            cli=("--config", "resnet_cifar10_fixed_lr", "--model", "resnet_lite_cnn", "--scale", "0.25"),
        ),
        Workload(
            "cluster_m64",
            "m=64 resolves auto to the sharded backend: shard RPC, shm gather-average and pool "
            "spawn/rebuild dominate; decides auto_shard_threshold",
            "local_period",
            cli=("--config", "vgg_cifar10_fixed_lr", "--set", "n_workers=64", "--scale", "0.5"),
        ),
        Workload(
            "campaign_cold",
            "four shipped campaigns (39 cells, 33 unique) into a fresh store with --jobs 2: "
            "sweep pool, store writes and the gossip/async/elastic methods",
            "local_period,cell_result",
            fresh_store=True,
        ),
        Workload(
            "campaign_replay",
            "the same four campaigns against the filled store: no cell runs, so import, store "
            "reads and rendering are the whole cost",
            "store_read",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: "float | None" = None


END_TO_END = (
    Metric("wall_s", "s", "lower", 0.2),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("samples_per_s", "1/s", "higher", 0.2),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("adacomm_speedup_x", "x", "higher", 0.05),
)

# Layers whose self time the traced run reports, with the end-to-end metric
# each should move and where:
#   startup.import            setup_s on campaign_replay and campaign_cold
#   core.eval                 wall_s on paper_cnn (barely on cluster_m64)
#   nn.forward_loss, nn.backward, optim.step, data.loader
#                             samples_per_s on paper_cnn
#   distributed.setup         setup_s on cluster_m64
#   distributed.local_period, distributed.average (and the bytes counters)
#                             samples_per_s on cluster_m64
#   sweep.cell_wait, sweep.store_write, sweep.pool_setup
#                             wall_s on campaign_cold
#   sweep.store_read, experiments.render
#                             wall_s on campaign_replay
#   runtime.sample, data.build
#                             expected to stay small everywhere
# unattributed_s is the traced wall minus all of them.
LAYERS = (
    "startup.import", "trace.install", "data.build", "data.loader", "nn.forward_loss",
    "nn.backward", "optim.step", "runtime.sample", "distributed.setup",
    "distributed.local_period", "distributed.average", "distributed.teardown", "core.eval",
    "sweep.pool_setup", "sweep.cell_wait", "sweep.store_write", "sweep.store_read",
    "experiments.render", "experiments.save",
)
BYTE_LAYERS = ("sweep.store_write", "sweep.store_read")
# --metrics counters of the single-config runs, by per-layer metric name.
COUNTERS = {
    "distributed.bytes_averaged": "bytes_averaged_total",
    "distributed.bytes_over_pipe": "bytes_over_pipe",
    "distributed.bytes_via_shm": "bytes_via_shm",
}
FLOORS = (
    ("nn.forward_loss_floor_flops", "flop"), ("nn.forward_loss_floor_bytes", "B"),
    ("nn.backward_floor_flops", "flop"), ("nn.backward_floor_bytes", "B"),
    ("distributed.average_floor_flops", "flop"), ("distributed.average_floor_bytes", "B"),
)
TOTALS = ("traced_wall_s", "untraced_wall_s", "trace_overhead_s", "unattributed_s")


def per_layer_metrics() -> list[Metric]:
    out = []
    for layer in LAYERS:
        out += [Metric(f"{layer}_s", "s", "lower"), Metric(f"{layer}_calls", "count", "lower")]
    out += [Metric(f"{layer}_bytes", "B", "lower") for layer in BYTE_LAYERS]
    out += [Metric(name, "B", "lower") for name in COUNTERS]
    out += [Metric(name, unit, "lower") for name, unit in FLOORS]
    out += [Metric(name, "s", "lower") for name in TOTALS]
    return out


def manifest() -> dict:
    """The ``BENCHMARK.json`` contents: command, workloads and metrics."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer_metrics()],
    }


# -- processes ------------------------------------------------------------


@dataclass
class Proc:
    code: "int | None"  # None: killed at the timeout
    wall: float
    setup: float
    import_s: float
    install_s: float
    rss_mb: float
    stdout: str
    report: dict
    leaks: list[str]


def _session_members(sid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _cmdline(pid: int) -> str:
    try:
        return Path("/proc", str(pid), "cmdline").read_bytes().replace(b"\0", b" ").decode()[:200]
    except OSError:
        return "?"


def _shm_names() -> set[str]:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def run_process(args: list[str], work: Path, marks: str, trace: bool, deadline: float) -> Proc:
    """Run one ``python -m repro`` process to completion and measure it.

    The child leads a new session, so its whole process tree can be killed
    at the timeout and any process it leaves behind can be found.
    ``os.wait4`` gives the peak RSS of the child and its reaped descendants.
    """
    report_path = work / "report.json"
    out_path = work / "stdout.txt"
    report_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PERFBENCH_REPORT"] = str(report_path)
    env["PERFBENCH_TRACE"] = "1" if trace else "0"
    env["PERFBENCH_MARKS"] = marks
    shm_before = _shm_names()
    timeout = max(1.0, min(PROCESS_TIMEOUT_S, deadline - time.monotonic()))
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(out_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *args],
            cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True,
        )
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    child.returncode = os.waitstatus_to_exitcode(status)

    # multiprocessing's resource tracker exits on its own once the child's
    # end of its pipe closes; anything still alive after the grace period
    # was left behind.
    grace_end = time.monotonic() + LEAK_GRACE_S
    while _session_members(child.pid) and time.monotonic() < grace_end:
        time.sleep(0.01)
    leaks = []
    for pid in _session_members(child.pid):
        leaks.append(f"process {pid}: {_cmdline(pid)}")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for name in sorted(_shm_names() - shm_before):
        leaks.append(f"/dev/shm/{name}")
        (SHM / name).unlink(missing_ok=True)

    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    first_work = report.get("first_work")
    return Proc(
        code=None if killed.is_set() else child.returncode,
        wall=wall,
        setup=(first_work - t0) if first_work is not None else wall,
        import_s=report["t_imported"] - t0 if report else 0.0,
        install_s=report["t_installed"] - report["t_imported"] if report else 0.0,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        report=report,
        leaks=leaks,
    )


# -- program outputs --------------------------------------------------------


def digest_run(run: dict) -> str:
    """Digest of one method's trajectory record.

    The resolved backend name is left out: every backend is byte-identical,
    so a change to the ``auto`` policy is not an output change.
    """
    run = dict(run, config={k: v for k, v in run["config"].items() if k != "backend"})
    text = json.dumps(run, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_records(records: list) -> dict[str, str]:
    """Trajectory digest per method (record name)."""
    from repro.utils.results import encode_json_floats

    return {r.name: digest_run(encode_json_floats(r.to_dict())) for r in records}


def speedup(records: list) -> float:
    """AdaComm-over-sync speed-up at the CLI's default target loss."""
    from repro.utils.results import RunStore

    store = RunStore.from_records(records)
    start = max(r.points[0].train_loss for r in store if r.points)
    best = min(r.best_loss() for r in store)
    return store.speedup("adacomm", "sync-sgd", target_loss=best + 0.25 * (start - best))


def samples_of(records: list, n_train: int, batch_size: int) -> int:
    """Local-SGD samples behind the records (all workers, all methods)."""
    total = 0
    for r in records:
        m = int(r.config["n_workers"])
        total += r.points[-1].iteration * m * min(batch_size, n_train // m)
    return total


def manifest_cells(results, campaign: str) -> list[dict]:
    """The campaign's cells as its store manifest lists them (none if absent)."""
    try:
        return results.manifest(campaign)["cells"]
    except KeyError:
        return []


def rendered(stdout: str, store: Path) -> str:
    """Digest of a campaign's rendered tables (after the runner's summary line)."""
    lines = stdout.replace(str(store), "<store>").splitlines()
    start = next((i for i, line in enumerate(lines) if " total=" in line), len(lines))
    return hashlib.sha256("\n".join(lines[start + 1:]).encode()).hexdigest()[:16]


# -- one repeat of a workload ---------------------------------------------


@dataclass
class Repeat:
    wall: float = 0.0
    setup: float = 0.0
    rss_mb: float = 0.0
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    speedup: "float | None" = None
    seed: "int | None" = None  # single-config repeats: the seed they ran
    digests: dict = field(default_factory=dict)
    backends: set = field(default_factory=set)
    layers: dict = field(default_factory=dict)  # per-layer sums (traced repeats)
    problems: list = field(default_factory=list)

    def add(self, proc: Proc) -> None:
        self.wall += proc.wall
        self.setup += proc.setup
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        self.failed += len(proc.leaks)
        self.problems += [f"leak: {leak}" for leak in proc.leaks]
        if proc.code != 0:
            self.problems.append(f"exit code {proc.code}" if proc.code is not None else "timeout")
        acc = self.layers
        acc["startup.import_s"] = acc.get("startup.import_s", 0.0) + proc.import_s
        acc["trace.install_s"] = acc.get("trace.install_s", 0.0) + proc.install_s
        acc["startup.import_calls"] = acc.get("startup.import_calls", 0) + 1
        acc["trace.install_calls"] = acc.get("trace.install_calls", 0) + 1
        for key, suffix in (("self_s", "_s"), ("calls", "_calls"), ("bytes", "_bytes")):
            for layer, value in proc.report.get(key, {}).items():
                acc[layer + suffix] = acc.get(layer + suffix, 0) + value


class Bench:
    def __init__(self, work: Path, pins: "dict | None", deadline: float):
        self.work = work
        self.pins = pins
        self.deadline = deadline
        self.seen: dict = {}  # digests per (workload, seed), for repeatability
        self._configs: dict = {}

    def _config(self, workload: Workload):
        if workload.name not in self._configs:
            from repro.experiments.cli import _load_config, build_parser

            self._configs[workload.name] = _load_config(build_parser().parse_args(list(workload.cli)))
        return self._configs[workload.name]

    def run_config(self, workload: Workload, seed: int, trace: bool) -> Repeat:
        from repro.utils.results import RunStore

        rep = Repeat(seed=seed)
        save = self.work / "runs.json"
        save.unlink(missing_ok=True)
        args = [*workload.cli, "--set", f"seed={seed}", "--save", str(save)]
        proc = run_process(
            args + (["--metrics"] if trace else []), self.work, workload.marks, trace, self.deadline
        )
        rep.add(proc)
        store = RunStore.load(save) if proc.code == 0 and save.is_file() else None
        records = list(store) if store is not None else []
        rep.digests = digest_records(records)
        # Every seed runs the reference lineup; a seed other than the
        # reference must reproduce its own first repeat in this run.
        names = sorted(self.pins[workload.name] if self.pins else rep.digests)
        rep.attempted = len(names)
        if proc.code != 0:
            rep.failed += len(names)
        elif self.pins is not None:
            if seed == REFERENCE_SEED:
                expected = self.pins[workload.name]
            else:
                expected = self.seen.setdefault((workload.name, seed), rep.digests)
            bad = [n for n in names if rep.digests.get(n) != expected.get(n)]
            rep.failed += len(bad)
            rep.problems += [f"digest mismatch: {workload.name}/{n} at seed {seed}" for n in bad]
        if records:
            config = self._config(workload)
            rep.samples = samples_of(records, config.n_train, config.batch_size)
            rep.backends = {r.config["backend"] for r in records}
            if seed == REFERENCE_SEED:
                rep.speedup = speedup(records)
            if trace:
                self._trace_counts(rep, workload, store.metrics or {})
        return rep

    def _trace_counts(self, rep: Repeat, workload: Workload, metrics: dict) -> None:
        from floors import average_floors, step_floors
        from repro.experiments.harness import _build_model_fn

        counters = metrics.get("counters", {})
        for name, counter in COUNTERS.items():
            rep.layers[name] = counters.get(counter, 0.0)
        config = self._config(workload)
        model = _build_model_fn(config, model_seed=0)()
        batch = min(config.batch_size, config.n_train // config.n_workers)
        step = step_floors(model, config.n_workers, batch)
        avg = average_floors(model.num_parameters(), config.n_workers)
        fwd = rep.layers.get("nn.forward_loss_calls", 0)
        bwd = rep.layers.get("nn.backward_calls", 0)
        n_avg = rep.layers.get("distributed.average_calls", 0)
        rep.layers.update({
            "nn.forward_loss_floor_flops": fwd * step["forward_flops"],
            "nn.forward_loss_floor_bytes": fwd * step["forward_bytes"],
            "nn.backward_floor_flops": bwd * step["backward_flops"],
            "nn.backward_floor_bytes": bwd * step["backward_bytes"],
            "distributed.average_floor_flops": n_avg * avg["flops"],
            "distributed.average_floor_bytes": n_avg * avg["bytes"],
        })

    def run_campaigns(self, store: Path, marks: str, trace: bool) -> Repeat:
        from repro.sweep import ResultStore

        rep = Repeat()
        results = ResultStore(store)
        cells: dict = {}
        for campaign in CAMPAIGNS:
            proc = run_process(
                ["--sweep", campaign, "--jobs", "2", "--store", str(store)],
                self.work, marks, trace, self.deadline,
            )
            rep.add(proc)
            addresses = [c["address"] for c in manifest_cells(results, campaign)]
            digests = {"rendered": rendered(proc.stdout, store), "cells": {}}
            for address in addresses:
                if address in results:
                    records = list(results.runs(address))
                    text = json.dumps(digest_records(records), sort_keys=True)
                    digests["cells"][address] = hashlib.sha256(text.encode()).hexdigest()[:16]
                    cells[address] = (results.meta(address)["config"], records)
            rep.digests[campaign] = digests
            expected = self.pins["campaigns"][campaign] if self.pins else None
            wanted = list(expected["cells"]) if expected is not None else addresses
            rep.attempted += len(wanted)
            if proc.code != 0 or "FAILED" in proc.stdout:
                rep.failed += len(wanted)
            elif expected is not None:
                bad = [a for a in wanted if digests["cells"].get(a) != expected["cells"][a]]
                if digests["rendered"] != expected["rendered"]:
                    bad = wanted
                    rep.problems.append(f"rendered output mismatch: {campaign}")
                rep.failed += len(bad)
                rep.problems += [f"cell digest mismatch: {campaign}/{a}" for a in bad[:3]]
        for config, records in cells.values():
            rep.samples += samples_of(records, config["n_train"], config["batch_size"])
            rep.backends |= {r.config["backend"] for r in records}
        # The paper's comparison: AdaComm against sync SGD, per campaign seed.
        pairs: dict = {}
        for cell in manifest_cells(results, SPEEDUP_CAMPAIGN):
            if cell["address"] in cells:
                pairs.setdefault(cell["overrides"]["seed"], []).extend(cells[cell["address"]][1])
        values = [speedup(recs) for recs in pairs.values() if {r.name for r in recs} >= {"adacomm", "sync-sgd"}]
        if values:
            rep.speedup = statistics.median(values)
        return rep

    def repeat(self, workload: Workload, seed: int, trace: bool, replay_store: "Path | None") -> Repeat:
        if workload.cli:
            return self.run_config(workload, seed, trace)
        if workload.fresh_store:
            store = Path(tempfile.mkdtemp(prefix="store-", dir=self.work))
            try:
                return self.run_campaigns(store, workload.marks, trace)
            finally:
                shutil.rmtree(store, ignore_errors=True)
        return self.run_campaigns(replay_store, workload.marks, trace)


# -- a run: repeats for --seconds, then medians -------------------------------


def environment(backends: set) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "backend": sorted(backends),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        bench = Bench(work, json.loads(PINS.read_text()), deadline)
        replay_store = None
        untraced: list[Repeat] = []
        traced: list[Repeat] = []
        fills: list[Repeat] = []
        if not workload.cli and not workload.fresh_store:
            # Untimed: the cold run that fills the store the repeats replay.
            replay_store = work / "store"
            fills.append(bench.run_campaigns(replay_store, WORKLOADS["campaign_cold"].marks, False))
        start = time.monotonic()
        last = 0.0
        i = 0
        min_repeats = 2 if trace else MIN_REPEATS
        while time.monotonic() < deadline - 2 * last and (
            i < min_repeats or time.monotonic() - start + last <= seconds
        ):
            t = time.monotonic()
            s = REFERENCE_SEED if i % 2 == 0 else seed
            # Traced repeats pair with untraced ones on the same seed, each
            # side going first in turn, so their difference is the overhead.
            if trace and i % 2:
                traced.append(bench.repeat(workload, s, True, replay_store))
            untraced.append(bench.repeat(workload, s, False, replay_store))
            if trace and not i % 2:
                traced.append(bench.repeat(workload, s, True, replay_store))
            last = time.monotonic() - t
            i += 1
        return summarize(workload, seed, untraced, traced, fills, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(
    workload: Workload, seed: int, untraced: list, traced: list, fills: list, trace: bool
) -> dict:
    every = fills + untraced + traced
    attempted = sum(r.attempted for r in every)
    failed = min(attempted, sum(r.failed for r in every))
    backends = set().union(*(r.backends for r in every))
    # A run that never reaches the target has no speed-up (its digests fail too).
    speedups = [r.speedup for r in untraced if r.speedup is not None and math.isfinite(r.speedup)]
    med = statistics.median
    e2e = {
        "wall_s": med(r.wall for r in untraced),
        "setup_s": med(r.setup for r in untraced),
        "samples_per_s": med(r.samples / max(r.wall - r.setup, 1e-9) for r in untraced),
        "peak_rss_mb": med(r.rss_mb for r in untraced),
        "adacomm_speedup_x": med(speedups) if speedups else 0.0,
    }
    print(f"workload {workload.name}: {len(untraced)} untraced + {len(traced)} traced repeats, "
          f"seed {seed} (alternating with reference seed {REFERENCE_SEED})")
    print("environment: " + json.dumps(environment(backends), sort_keys=True))
    for r in every:
        for problem in r.problems:
            print(f"FAILED: {problem}")
    print("digests: " + json.dumps(digest_summary(every), sort_keys=True))
    units = {m.name: m.unit for m in END_TO_END}
    walls = sorted(r.wall for r in untraced)
    print(f"  wall_s over {len(walls)} untraced repeats: min {walls[0]:.4g}, "
          f"median {statistics.median(walls):.4g}, max {walls[-1]:.4g}")
    for name, value in e2e.items():
        print(f"  {name:<20} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<20} {failed / max(attempted, 1):>14.6g} 1   ({failed} of {attempted} operations)")
    if trace:
        metrics = per_layer(untraced, traced)
        print("note: shard-process and sweep-pool-child work is not traced there; it shows as "
              "parent-side wait in distributed.local_period and sweep.cell_wait")
        units = {m.name: m.unit for m in per_layer_metrics()}
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>16.6g} {units[name]}")
    else:
        metrics = e2e
        units = {m.name: m.unit for m in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def digest_summary(repeats: list) -> dict:
    """One line to compare two trees by: method digests per seed, or one
    digest per campaign over its rendered output and every cell."""
    out: dict = {}
    for r in repeats:
        if r.seed is not None:
            out[f"seed {r.seed}"] = r.digests
            continue
        for campaign, d in r.digests.items():
            text = json.dumps(d, sort_keys=True)
            out[campaign] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


def per_layer(untraced: list, traced: list) -> dict:
    """Mean per traced repeat, so the self times still add up to the wall."""
    if not traced:  # the time limit cut the run before its first traced repeat
        traced = [Repeat()]
    n = len(traced)
    out = {}
    for m in per_layer_metrics():
        out[m.name] = sum(r.layers.get(m.name, 0) for r in traced) / n
    out["traced_wall_s"] = sum(r.wall for r in traced) / n
    out["untraced_wall_s"] = sum(r.wall for r in untraced) / len(untraced)
    out["trace_overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(
        r.wall for r in untraced
    )
    out["unattributed_s"] = out["traced_wall_s"] - sum(out[f"{layer}_s"] for layer in LAYERS)
    return out


def write_pins(deadline: float) -> None:
    """Pin the reference-seed outputs of every workload (run once, on a trusted tree)."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pins-", dir=WORK_ROOT))
    try:
        bench = Bench(work, None, deadline)
        pins = {"reference_seed": REFERENCE_SEED}
        reps = []
        for workload in WORKLOADS.values():
            if workload.cli:
                reps.append(bench.run_config(workload, REFERENCE_SEED, trace=False))
                pins[workload.name] = reps[-1].digests
            elif workload.fresh_store:
                reps.append(bench.run_campaigns(work / "store", workload.marks, False))
                pins["campaigns"] = reps[-1].digests
        problems = [p for rep in reps for p in rep.problems]
        if problems or any(rep.failed for rep in reps):
            raise SystemExit(f"error: cannot pin a failing run: {problems}")
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        print(f"wrote {PINS}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the declarations in this file and exit")
    parser.add_argument("--write-pins", action="store_true",
                        help="run every workload at the reference seed and pin its output digests")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the driver reads the program's outputs with its own code
    deadline = time.monotonic() + HARD_LIMIT_S
    if args.write_pins:
        write_pins(deadline + 600)
        return 0
    if not PINS.is_file():
        print(f"error: {PINS} is missing; create it with --write-pins", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if args.workload == "all":
            deadline = time.monotonic() + HARD_LIMIT_S
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
