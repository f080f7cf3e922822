"""Tests of the benchmark itself (not of sqgci).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _sqgci_modules():
    for layer in spans.LAYERS:
        importlib.import_module(f"sqgci.{layer}")
    return {n: m for n, m in sys.modules.items()
            if m is not None and (n == "sqgci" or n.startswith("sqgci."))}


def _public_layer_functions():
    out = {}
    for layer in spans.LAYERS:
        mod = importlib.import_module(f"sqgci.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[id(obj)] = obj
    return out


def _references(modules, targets):
    return {(name, attr): obj for name, mod in modules.items()
            for attr, obj in vars(mod).items() if targets.get(id(obj)) is obj}


def test_install_reaches_every_binding_and_uninstall_restores():
    import scipy.fft

    from sqgci.fields import TorusField

    modules = _sqgci_modules()
    targets = _public_layer_functions()
    before = _references(modules, targets)
    field_methods = {m: TorusField.__dict__[m] for m in spans.FIELD_METHODS}
    ffts = {n: getattr(scipy.fft, n) for n in spans.FFTS}
    assert ("sqgci.iteration", "multiply") in before
    assert ("sqgci.norms", "to_grid") in before

    tracer = spans.Tracer()
    rebound = tracer.install()
    try:
        assert rebound == len(before) + len(field_methods) + len(ffts)
        assert not _references(modules, targets), "an original is still bound"
        for (name, attr), original in before.items():
            assert getattr(modules[name], attr).__traced_original__ is original
        for m, original in field_methods.items():
            assert TorusField.__dict__[m].__traced_original__ is original
        for n, original in ffts.items():
            assert getattr(scipy.fft, n).__traced_original__ is original
    finally:
        tracer.uninstall()

    assert _references(modules, targets) == before
    assert {m: TorusField.__dict__[m] for m in spans.FIELD_METHODS} == field_methods
    assert {n: getattr(scipy.fft, n) for n in spans.FFTS} == ffts


def _ladder_ledger(wl, tracer):
    with tracer.operation(0) if tracer else contextlib.nullcontext() as root:
        result = wl.op(tracer)
    try:
        err, facts = wl.check(result)
        with open(Path(result[0]) / "ledger.jsonl", "rb") as fh:
            ledger = fh.read()
    finally:
        wl.cleanup(result)
    return err, ledger, root, facts


def test_traced_ladder_writes_the_same_ledger(tmp_path):
    wl = worker.Ladder(3, str(tmp_path))
    wl.setup()
    wl.prepare()
    err, plain, _, _ = _ladder_ledger(wl, None)
    assert err is None

    tracer = spans.Tracer()
    tracer.install()
    try:
        err, traced, root, facts = _ladder_ledger(wl, tracer)
    finally:
        tracer.uninstall()
    assert err is None
    assert traced == plain == wl.reference

    m = spans.op_metrics(tracer, root, facts)
    assert set(m) == set(spans.METRICS)
    assert m["cli.steps_computed"] == 0.5
    assert m["cli.files_written"] > 0 and m["fields.io_bytes"] > 0
    # every span of the operation lies inside its parent, so self times
    # add up to the operation's wall time
    for name, start, end, parent, op, _ in tracer.spans:
        if op == 0 and parent is not None:
            assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2], name


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    times = [float(i) for i in range(40)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == 75.0


def test_benchmark_json_names_every_layer_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
