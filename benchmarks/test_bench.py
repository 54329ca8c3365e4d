"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_bench.py

The first test runs the desk grid serially and pooled (about 6 s on 2 CPUs).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402

TEST_REPORT = Path(".bench_build", "hodgefock-test", "report.json")
SMALL = ["all", "--max-dim", "2", "--max-n", "3"]


def setup_module():
    (bench.ROOT / TEST_REPORT).parent.mkdir(parents=True, exist_ok=True)
    bench.OUT.mkdir(parents=True, exist_ok=True)


def _cli(args, workers, seed):
    deadline = time.monotonic() + 120
    run = bench.run_cli(args, workers, seed, TEST_REPORT, deadline)
    return run, bench.ROOT / TEST_REPORT


def test_desk_serial_and_pooled_reports_are_byte_identical():
    wl = bench.WORKLOADS["desk"]
    shas = []
    for workers in (1, bench.POOL_WORKERS):
        run, path = _cli(wl.verify_args(), workers, 5)
        check = bench.check_report(path, run.exit_code, wl.suite, *bench.grid(wl), 5)
        assert check.problems == []
        assert check.attempted == 352
        shas.append(check.sha256)
    assert bench.POOL_WORKERS == 2
    assert shas[0] == shas[1]


def test_cpu_picker_pins_to_one_of_the_allowed_cpus():
    allowed = os.sched_getaffinity(0)
    try:
        picker = bench.CpuPicker()
        picker.pin()
        (cpu, probe_s), = picker.picks
        assert os.sched_getaffinity(0) == {cpu} and cpu in allowed and probe_s > 0
    finally:
        os.sched_setaffinity(0, allowed)


def test_seed_is_passed_through_and_checked():
    run, path = _cli(SMALL, 1, 7)
    dims, ns = range(1, 3), range(1, 4)
    assert bench.check_report(path, run.exit_code, "all", dims, ns, 7).problems == []
    assert json.loads(path.read_bytes())["config"]["seed"] == 7
    assert bench.check_report(path, run.exit_code, "all", dims, ns, 8).problems


def test_check_report_counts_failed_cases_and_bad_dims():
    run, path = _cli(SMALL, 1, 0)
    dims, ns = range(1, 3), range(1, 4)
    report = json.loads(path.read_bytes())
    report["cases"][0]["status"] = "fail"
    split = next(c for c in report["cases"] if c["name"].startswith("split"))
    split["details"]["dim"] += 1
    path.write_text(json.dumps(report))
    check = bench.check_report(path, 1, "all", dims, ns, 0)
    assert check.failed == check.attempted == len(report["cases"])
    assert any("block dimension" in p for p in check.problems)
    path.write_text("{")
    check = bench.check_report(path, 0, "all", dims, ns, 0)
    assert check.failed == check.attempted and check.problems


def _bindings():
    """Every hodgefock module and class attribute, by identity."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "hodgefock" or modname.startswith("hodgefock."):
            for attr, val in vars(mod).items():
                out[(modname, attr)] = val
                if isinstance(val, type):
                    for cattr, cval in vars(val).items():
                        out[(modname, attr, cattr)] = cval
    return out


def test_trace_self_times_fit_in_the_wall_and_wrappers_are_restored(tmp_path, monkeypatch):
    import hodgefock.cli as cli

    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    before = _bindings()
    argv = ["verify", *SMALL, "--format", "json", "--out", str(tmp_path / "r.json")]
    record = tracer.traced_main(argv, "full")
    assert _bindings() == before
    assert record["exit_code"] == 0
    totals = {}
    for case, spans in record["spans"].items():
        for name, (calls, self_t) in spans.items():
            assert calls > 0 and self_t >= 0, (case, name)
            totals[name] = totals.get(name, 0.0) + self_t
    assert sum(totals.values()) <= record["wall_s"]
    assert set(record["case_s"]) == {c["name"] for c in cli.parse_report(
        (tmp_path / "r.json").read_text()).cases}
    for module, names in tracer.LAYERS.items():
        for name in names:
            if module != "rep_theory":
                assert f"{module}.{name}" in totals, name
    assert 0 < record["grown"] <= record["inserts"]
    assert record["subspace_nnz_max"] > 0

    cases = tracer.traced_main(argv, "cases")
    assert set(cases["spans"]) - {tracer.OUTSIDE} == set(cases["case_s"])
    metrics = bench.layer_metrics(record, cases, cases["wall_s"])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    assert 0.9 <= metrics["trace.coverage"][0] <= 1


def test_wrappers_reach_every_namespace_that_binds_the_name():
    import hodgefock
    from hodgefock import cli, fock_ops, hodge, rep_theory, tensor_core

    with tracer.Tracer() as t:
        t.install()
        wrapped = fock_ops.lower
        assert wrapped.__wrapped__ is not None
        assert cli.lower is wrapped and hodge.lower is wrapped and hodgefock.lower is wrapped
        assert rep_theory.embed is tensor_core.embed is hodge.embed
        assert rep_theory.embed.__wrapped__ is not None
        assert cli._run_case.__wrapped__ is not None
    assert not hasattr(fock_ops.lower, "__wrapped__")
    assert cli.lower is fock_ops.lower


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "desk", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
