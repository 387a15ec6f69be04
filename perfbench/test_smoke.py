"""Tests of the benchmark itself: smoke runs, tracer patching, output checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check_report  # noqa: E402
from tracing import Span, Tracer, layer_totals  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS, ReportSpec  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_declared_metric(workload, trace):
    # smoke mode exits nonzero when a metric of BENCHMARK.json is missing or
    # has another unit, so the return code carries that check
    proc = _run(["--workload", workload, "--smoke", "--trace", str(trace), "--seed", "3"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(SMOKE_WORKLOADS[workload]) * (1 + trace)


def test_fails_without_library_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "torus-exact", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_binding_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from groupforests import forests, intmat, linalg, runner

    bareiss = intmat.bareiss_determinant
    build = linalg.build_laplacian
    tracer = Tracer()
    with tracer.installed():
        assert linalg.bareiss_determinant is intmat.bareiss_determinant is not bareiss
        assert runner.build_laplacian is forests.build_laplacian is linalg.build_laplacian
        assert linalg.build_laplacian is not build
        assert linalg.bareiss_determinant([[2, -1], [-1, 2]]) == 3
    assert intmat.bareiss_determinant is linalg.bareiss_determinant is bareiss
    assert runner.build_laplacian is forests.build_laplacian is build
    assert [(s.name, s.value) for s in tracer.spans] == [("intmat.bareiss_determinant", 2)]


def test_self_time_subtracts_children():
    outer = Span(0, "outer", 0.0, None, "r")
    outer.end = 10.0
    inner = Span(1, "inner", 2.0, 0, "r")
    inner.end = 5.0
    inner.error = "ResourceLimitError"
    totals = layer_totals([outer, inner])
    assert totals["outer"]["self"] == 7.0
    assert totals["inner"]["self"] == 3.0
    assert totals["inner"]["capped"] == 1 and totals["inner"]["capped_time"] == 3.0


HEADER = "# config:\n#   operation: x\n"


def test_checks_catch_wrong_reports():
    identity = ReportSpec("identity", "free-abelian:2", "4,4")
    good = HEADER + "n,N,tau,component_order\n0,16,42467328,42467328\n"
    assert check_report(identity, good) == []
    assert check_report(identity, good.replace(",42467328\n", ",42467329\n"))

    ust = ReportSpec("sample-ust", "free-abelian:2", "2,2", ("--samples", "1"))
    tree = HEADER + "n,sample,u,v,slot\n0,0,0,1,0\n0,0,0,2,0\n0,0,1,3,0\n"
    assert check_report(ust, tree) == []
    cycle = HEADER + "n,sample,u,v,slot\n0,0,0,1,0\n0,0,1,3,0\n0,0,0,3,0\n"
    assert check_report(ust, cycle)
    short = HEADER + "n,sample,u,v,slot\n0,0,0,1,0\n0,0,1,3,0\n"
    assert check_report(ust, short)

    fk = ReportSpec("fk-det", "free-abelian:2", "4,4")
    assert check_report(fk, HEADER + "n,N,consistency_gap\n0,16,1e-12\n") == []
    assert check_report(fk, HEADER + "n,N,consistency_gap\n0,16,1e-6\n")
