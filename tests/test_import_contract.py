"""The start-up import contract, checked in fresh interpreters.

Every ``python -m repro`` process, and every spawned shard or sweep-pool
child, imports NumPy plus the modules its command runs — nothing heavier
just for being on an import path.  Each check runs in a subprocess so the
test session's own imports cannot mask a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.sweep import run_sweep
from repro.sweep.campaigns import smoke_sweep

SRC_ROOT = Path(repro.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_ROOT), os.environ.get("PYTHONPATH")]))}

LAZY_PACKAGES = ["repro", "repro.api", "repro.distributed", "repro.experiments", "repro.sweep", "repro.obs"]

# Modules the CLI entry point must not import before it knows the command.
NOT_AT_CLI_IMPORT = [
    "networkx",
    "scipy",
    "repro.experiments.harness",
    "repro.distributed.cluster",
    "repro.sweep.runner",
    "multiprocessing.shared_memory",
]


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_heavy_modules():
    loaded = run_python(
        f"""
        import json, sys
        import repro.experiments.cli
        print(json.dumps([m for m in {NOT_AT_CLI_IMPORT!r} if m in sys.modules]))
        """
    )
    assert loaded == []


def test_package_import_loads_nothing():
    loaded = run_python(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(m for m in sys.modules if m.startswith(("repro", "numpy")))))
        """
    )
    assert loaded == ["repro", "repro._lazy"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_name_resolves_and_is_listed(package):
    result = run_python(
        f"""
        import importlib, json
        package = importlib.import_module({package!r})
        listed = dir(package)
        missing = [n for n in package.__all__ if n not in listed]
        unresolved = [n for n in package.__all__ if not hasattr(package, n)]
        namespace = {{}}
        exec(f"from {{package.__name__}} import *", namespace)
        starred = sorted(set(package.__all__) - set(namespace))
        print(json.dumps({{"n": len(package.__all__), "missing": missing,
                           "unresolved": unresolved, "starred": starred}}))
        """
    )
    assert result["n"] > 0
    assert result == {"n": result["n"], "missing": [], "unresolved": [], "starred": []}


def test_unknown_name_raises_attribute_error():
    import repro.obs

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(repro.obs, "nope")


def test_sweep_replay_never_imports_the_harness(tmp_path):
    store = tmp_path / "store"
    run_sweep(smoke_sweep(), store=store, jobs=1)
    result = run_python(
        f"""
        import contextlib, io, json, runpy, sys
        sys.argv = ["repro", "--sweep", "smoke_2x2", "--store", {str(store)!r}]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code
        print(json.dumps({{
            "code": code,
            "replayed": "executed=0 cached=4 failed=0" in out.getvalue(),
            "loaded": [m for m in ("repro.experiments.harness", "repro.distributed.cluster")
                       if m in sys.modules],
        }}))
        """
    )
    assert result == {"code": 0, "replayed": True, "loaded": []}


def test_invalid_field_exits_2_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--config", "smoke", "--set", "lr=nan"],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert proc.returncode == 2
    assert "lr must be a number, got 'nan'" in proc.stderr
    assert "Traceback" not in proc.stderr
