"""Contract between the benchmark's span recorders and the package.

``perfbench/trace_child.py`` wraps functions that one chemocert module looks
up in another. A function renamed, inlined or called through another name
leaves its layer at zero, and the traced benchmark run then reads incorrect.
These tests run the recorder on a small config for each benchmarked command
and apply the benchmark's own rule: every layer the workload should reach
reads above zero. They also check that the write counters account for every
artifact the command leaves.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chemocert.config import load_config
from test_cli import SMALL_CFG

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look themselves up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_workload_configs_load(tmp_path, monkeypatch, bench):
    # the benchmark writes its configs from configs/canonical.cfg; the config
    # layer rejects unknown keys, so each must still load, as must both
    # shipped configs
    monkeypatch.setattr(bench, "WORK", tmp_path)
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        path, _keys = bench.write_config(workload["name"], seed=3)
        load_config(path)
    for name in ("canonical.cfg", "refine.cfg"):
        load_config(PERFBENCH.parent / "configs" / name)


@pytest.mark.parametrize("command, workload", [("simulate", "simulate-64"),
                                               ("certify", "certify-64"),
                                               ("sweep", "sweep-256")])
def test_recorders_reach_every_layer(tmp_path, bench, command, workload):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CFG, encoding="utf-8")
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    # the exit status is not asserted: sweep fails its own gates on the
    # short ladder of SMALL_CFG
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_child.py"), str(trace), workload,
         command, "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600)
    assert trace.is_file(), proc.stderr
    data = json.loads(trace.read_text(encoding="utf-8"))
    totals = bench.span_totals(data["spans"])
    counters = data["counters"]
    unreached = [name for name, _unit, span, fld
                 in (*bench.LAYERS, *bench.WORKLOAD_LAYERS[workload])
                 if not (counters.get(name, 0) if span is None
                         else totals.get(span, {}).get(fld, 0)) > 0]
    assert not unreached
    # the write counters cover every artifact: one row per CSV data line, and
    # every byte in the output directory
    files = [p for p in (tmp_path / "out").iterdir() if p.is_file()]
    data_rows = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1
                    for p in files if p.suffix == ".csv")
    assert counters["runner.write.rows"] == data_rows
    assert counters["runner.write.bytes"] == sum(p.stat().st_size for p in files)
