"""Driver behavior: determinism, report schema, exit codes, filters."""

import hashlib
import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hodgefock.chaos as chaos
import hodgefock.cli as cli
import hodgefock.fock_ops as fock_ops
import hodgefock.hodge as hodge
import hodgefock.linalg as linalg
import hodgefock.rep_theory as rep_theory
from hodgefock import ConfigError, block_dim, exactness_report
from hodgefock.cli import VerifyConfig, main, parse_report, render_report, run_verify
from hodgefock.linalg import matrix_rank
from hodgefock.tensor_core import FockTensor, enum_basis, weight_patterns

import oracles
from conftest import clear_caches


def small(**kwargs):
    base = dict(suite="all", max_dim=2, max_n=2, seed=7, format="json")
    base.update(kwargs)
    return VerifyConfig(**base)


def test_run_verify_is_deterministic():
    a = run_verify(small())
    b = run_verify(small())
    assert a._asdict() == b._asdict()
    assert render_report(a, "json") == render_report(b, "json")
    assert a.status == "pass"


def test_worker_count_does_not_change_output(monkeypatch):
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    serial = render_report(run_verify(small()), "json")
    monkeypatch.setenv("HODGEFOCK_WORKERS", "3")
    pooled = render_report(run_verify(small()), "json")
    assert serial == pooled


def test_json_roundtrip():
    report = run_verify(small(suite="weitzenboeck"))
    again = parse_report(render_report(report, "json"))
    assert again._asdict() == report._asdict()


def test_default_config_keys_and_values_in_report_order():
    # config is written into every report, so its keys keep this order.
    assert list(VerifyConfig()._asdict().items()) == [
        ("suite", "all"), ("max_dim", 3), ("max_n", 4), ("seed", 0), ("dim", None),
        ("n", None), ("k", None), ("q", None), ("format", "text"), ("out", None),
    ]


def test_parsed_report_renders_the_same_bytes():
    report = run_verify(small(suite="chaos", max_dim=2, max_n=2))
    text = render_report(report, "json")
    again = parse_report(text)
    assert again._asdict() == report._asdict()
    assert list(again._asdict()) == ["tool", "version", "config", "cases", "status"]
    assert render_report(again, "json") == text


def test_report_schema():
    report = run_verify(small(suite="exactness", max_dim=2, max_n=2))
    data = json.loads(render_report(report, "json"))
    assert set(data) == {"tool", "version", "config", "cases", "status"}
    assert data["tool"] == "hodgefock"
    assert data["config"]["suite"] == "exactness"
    for case in data["cases"]:
        assert set(case) == {"name", "params", "status", "details"}
        assert case["status"] in ("pass", "fail", "skip")
        assert set(case["params"]) == {"d", "n", "k"}


def test_config_dict_keeps_the_field_order():
    assert list(small()._asdict()) == [
        "suite", "max_dim", "max_n", "seed", "dim", "n", "k", "q", "format", "out",
    ]


def test_exactness_report_is_built_once_per_grid_point(monkeypatch, fresh_caches):
    # exactness_report is the cached record of (d, n): each of the 6 grid
    # points builds it once, and the other 12 of the 18 cases read it.
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    report = run_verify(small(suite="exactness", max_dim=2, max_n=3))
    assert report.status == "pass" and len(report.cases) == 2 * (2 + 3 + 4)
    info = exactness_report.cache_info()
    assert info.misses == info.currsize == 2 * 3 and info.hits == 18 - 6


def _lower_rows_swapped(t, real=hodge.lower):
    """lower with the first two labels of its codomain swapped on the block
    ((1, 1, 1), 2, 1): rows 0 and 1 of its matrix, so every elimination
    rank and kernel stays the same."""
    image = real(t)
    if t.shape() != ((1, 1, 1), 2, 1):
        return image
    first, second = enum_basis((1, 1, 1), 1, 2)[:2]
    swap = {first: second, second: first}
    return FockTensor._trusted(image.shape(), {swap.get(b, b): c for b, c in image.coeffs.items()})


def test_exactness_case_fails_on_a_rank_preserving_broken_lower(fresh_caches, monkeypatch):
    # Equal dimensions prove exactness only with lower lower = 0, which
    # elimination ranks never see.  The certificate of every block of the
    # complex is read first, and lower there is not the model's: the case
    # fails and names the check and the label, in each of its k.
    sig = ((1, 1, 1), 2, 1)
    real, broken = (
        [op(FockTensor._trusted(sig, {b: 1})).coeffs for b in enum_basis(*sig)]
        for op in (hodge.lower, _lower_rows_swapped)
    )
    assert broken != real and matrix_rank(broken) == matrix_rank(real)
    monkeypatch.setattr(hodge, "lower", _lower_rows_swapped)
    clear_caches()
    identities = {name for name, _ in hodge._certificate((1, 1, 1), 1, 2)[0]}
    labels = {b.render() for k in range(4) for b in enum_basis(3, k, 3 - k)}
    for k in range(4):
        status, details = hodge._case_exactness(3, 3, k)
        assert status == "fail" and set(details) == {"dim", "failed", "label"}
        assert details["failed"] in identities and details["label"] in labels


def test_config_validation():
    for bad in (
        small(max_dim=0),
        small(max_n=0),
        small(suite="bogus"),
        small(format="xml"),
        small(n=2, k=1, q=2),
        small(dim=0),
        small(k=-1),
    ):
        with pytest.raises(ConfigError):
            bad.validate()
    small(n=2, k=1, q=1).validate()


def test_case_order_is_stable_and_filters_apply():
    cfg = small(suite="split", k=1, q=1)
    specs = cli._case_specs(cfg)
    assert all(s[3] == 2 and s[4] == 1 for s in specs)
    names = [s[1] for s in specs]
    assert names == sorted(names, key=lambda nm: specs[names.index(nm)][2])
    full = cli._case_specs(small())
    keys = [(s[0], s[2], s[3], s[4]) for s in full]
    normalized = [("chaos" if a == "chaos-truncation" else a, d, n, k) for a, d, n, k in keys]
    assert normalized == sorted(normalized)


def test_rep_skip_when_indices_cannot_be_distinct():
    report = run_verify(small(suite="rep", dim=1, n=2))
    statuses = {c["name"]: c["status"] for c in report.cases}
    assert statuses and set(statuses.values()) == {"skip"}
    assert report.status == "pass"
    for c in report.cases:
        assert c["details"]["reason"] == "no distinct-index label"


def test_rep_degenerate_annotation():
    report = run_verify(small(suite="rep", dim=2, n=2, k=2, q=0))
    (case,) = report.cases
    assert case["status"] == "pass"
    note = case["details"]["degenerate"]
    assert note["note"] == "degenerate-orbit"
    assert note["label"] == "(1,1;)"


def test_empty_case_list_is_a_config_error(capsys):
    with pytest.raises(ConfigError, match="select no case"):
        run_verify(small(suite="split", n=1, k=5))
    assert main(["verify", "all", "--k", "7", "--max-n", "4"]) == 2
    assert "select no case" in capsys.readouterr().err


def test_failing_case_flips_status(monkeypatch):
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    monkeypatch.setattr(hodge, "_case_weitzenboeck", lambda *a: ("fail", {"forced": True}))
    report = run_verify(small(suite="weitzenboeck", max_dim=1, max_n=1))
    assert report.status == "fail"
    assert all(c["details"] == {"forced": True} for c in report.cases)


def test_exception_in_case_is_reported_not_raised(monkeypatch):
    def boom(*args):
        raise RuntimeError("synthetic")

    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    monkeypatch.setattr(hodge, "_case_weitzenboeck", boom)
    report = run_verify(small(suite="weitzenboeck", max_dim=1, max_n=1))
    assert report.status == "fail"
    assert report.cases[0]["details"]["error"] == "RuntimeError: synthetic"


def test_pool_failure_is_reported_and_falls_back_to_serial(monkeypatch, capsys):
    argv = ["verify", "all", "--max-dim", "2", "--max-n", "2", "--format", "json"]
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    assert main(argv) == 0
    serial = capsys.readouterr().out

    def no_pool(*args, **kwargs):
        raise OSError("no semaphores")

    monkeypatch.setattr(cli, "_process_pool", no_pool)
    monkeypatch.setenv("HODGEFOCK_WORKERS", "2")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == serial
    assert captured.err == (
        "warning: process pool failed (OSError: no semaphores); running cases serially\n"
    )


def _counting_run_case(monkeypatch) -> list:
    """Rebind cli._run_case, as benchmarks/tracer.py does, to a wrapper
    that records the name of each spec it runs; return that record."""
    ran, real = [], cli._run_case

    def counted(spec):
        ran.append(spec[1])
        return real(spec)

    monkeypatch.setattr(cli, "_run_case", counted)
    return ran


def test_pool_that_breaks_mid_stream_runs_only_the_cases_not_yet_written(monkeypatch, capsys):
    # The pool yields three records and then breaks: the report keeps those
    # three, and only the cases after them run in this process.
    from concurrent.futures.process import BrokenProcessPool

    argv = ["verify", "all", "--max-dim", "2", "--max-n", "2", "--format", "json"]
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    assert main(argv) == 0
    serial = capsys.readouterr().out

    class BreakingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs, chunksize=1):
            for spec in list(specs)[:3]:
                yield fn(spec)
            raise BrokenProcessPool("a worker died")

    ran = _counting_run_case(monkeypatch)
    monkeypatch.setattr(cli, "_process_pool", BreakingPool)
    monkeypatch.setenv("HODGEFOCK_WORKERS", "2")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == serial
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("warning: process pool failed (BrokenProcessPool: ")
    assert ran == [spec[1] for spec in cli._case_specs(small())]


def test_a_config_error_neither_creates_nor_truncates_the_out_file(tmp_path, monkeypatch, capsys):
    # Every ConfigError, a bad HODGEFOCK_WORKERS among them, comes before
    # the report is opened.
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text("previous report\n", encoding="utf-8")
    for workers, extra in (("zero", []), ("1", ["--k", "7"]), ("0", [])):
        monkeypatch.setenv("HODGEFOCK_WORKERS", workers)
        for target in (old, new):
            assert main(["verify", "split", "--max-n", "2", *extra, "--out", str(target)]) == 2
    assert old.read_text(encoding="utf-8") == "previous report\n"
    assert not new.exists()
    assert capsys.readouterr().err.count("error: ") == 6


class _RecordingSink:
    """A stand-in for stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_each_write_holds_at_most_one_case(fmt, monkeypatch):
    # The report is streamed: past the header, each write encodes one case
    # record, and only the closing lines follow the last.
    grid, digest, *_ = RECORDED_DIGESTS[0]
    assert grid == ["all", "--max-dim", "3", "--max-n", "4", "--seed", "42"]
    sink = _RecordingSink()
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["verify", *grid, "--format", fmt]) == 0
    monkeypatch.undo()
    head, *cases, close = sink.writes
    names = [spec[1] for spec in cli._case_specs(VerifyConfig(max_dim=3, max_n=4))]
    assert len(cases) == len(names) == 264
    if fmt == "json":
        assert hashlib.sha256("".join(sink.writes).encode("utf-8")).hexdigest() == digest
        assert head.endswith('"cases": [') and '"name"' not in head
        for name, text in zip(names, cases):
            record = json.loads(text.removeprefix(","))
            assert list(record) == ["name", "params", "status", "details"]
            assert record["name"] == name
        assert close == '\n  ],\n  "status": "pass"\n}\n'
    else:
        assert head.startswith("hodgefock ") and head.count("\n") == 1
        assert [text.split()[1:] for text in cases] == [name.split() for name in names]
        assert all(text.count("\n") == 1 for text in cases)
        statuses = [text.split()[0] for text in cases]
        assert statuses.count("pass") + statuses.count("skip") == 264
        assert close == f"{statuses.count('pass')} passed, 0 failed, {statuses.count('skip')}" \
            " skipped\nstatus: pass\n"


def test_a_run_stopped_mid_way_leaves_a_truncated_report(tmp_path, monkeypatch, capsys):
    # KeyboardInterrupt is not an Exception, so _run_case lets it through
    # and main does not catch it.  The file then holds the report up to the
    # last case written before it, and does not parse.
    target = tmp_path / "r.json"
    argv = ["verify", "all", "--max-dim", "2", "--max-n", "3", "--format", "json",
            "--out", str(target)]
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    assert main(argv) == 0
    full = target.read_text(encoding="utf-8")
    real = hodge._case_split

    def interrupted(d, n, k):
        if (d, n, k) == (2, 2, 1):
            raise KeyboardInterrupt
        return real(d, n, k)

    monkeypatch.setattr(hodge, "_case_split", interrupted)
    ran = _counting_run_case(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    names = [spec[1] for spec in cli._case_specs(small(max_n=3))]
    stop = names.index("split d=2 n=2 k=1")
    assert ran == names[: stop + 1]
    text = target.read_text(encoding="utf-8")
    assert full.startswith(text) and text.endswith("}")
    assert text.count('"name": ') == stop
    with pytest.raises(ValueError):
        json.loads(text)
    assert capsys.readouterr().out == ""


def _recording_pool(sizes: list):
    """A stand-in for the executor that starts no process: each one made
    appends its size to `sizes`."""

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs, chunksize=1):
            return map(fn, specs)

    return RecordingPool


def test_pool_is_never_larger_than_the_case_list(monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "_process_pool", _recording_pool(sizes))
    monkeypatch.setenv("HODGEFOCK_WORKERS", "8")
    report = run_verify(small(suite="weitzenboeck", max_dim=1, max_n=1))
    assert len(report.cases) == 2 and report.status == "pass"
    run_verify(small(suite="weitzenboeck", max_dim=3, max_n=3))
    assert sizes == [2, 8]


def test_case_homes_are_imported_before_the_pool_is_built(monkeypatch):
    # Workers fork from the driver, so a module it imports before the pool
    # is built is imported once, not once per worker.
    imported, at_pool = [], []
    real_import, pool = cli.import_module, _recording_pool([])

    def recording_import(name, package):
        imported.append(name)
        return real_import(name, package)

    def recording_pool(workers):
        at_pool.append(list(imported))
        return pool(workers)

    monkeypatch.setattr(cli, "import_module", recording_import)
    monkeypatch.setattr(cli, "_process_pool", recording_pool)
    monkeypatch.setenv("HODGEFOCK_WORKERS", "2")
    assert run_verify(small(suite="chaos", max_dim=1, max_n=1)).status == "pass"
    assert at_pool == [[".chaos"]]


def test_default_workers_are_the_cpus_this_process_may_run_on(monkeypatch):
    # taskset and cpusets narrow the affinity mask, not os.cpu_count().
    sizes = []
    monkeypatch.delenv("HODGEFOCK_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    assert cli._worker_budget() == 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._worker_budget() == 1
    monkeypatch.setattr(cli, "_process_pool", _recording_pool(sizes))
    report = run_verify(small(suite="weitzenboeck", max_dim=2, max_n=2))
    assert report.status == "pass" and len(report.cases) == 10 and sizes == []


def _child_env(workers: str) -> dict:
    """The environment of a child CLI process: this checkout's src/ first
    on PYTHONPATH, and HODGEFOCK_WORKERS set."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "HODGEFOCK_WORKERS": workers, "PYTHONPATH": path}


def _modules_a_serial_run_adds(tmp_path, *args) -> list:
    """The modules a serial `verify <args>` adds to a fresh interpreter,
    hodgefock's own import included; the before set comes from the same
    process, so what site loads at start-up cancels out."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from hodgefock.cli import main\n"
        f"rc = main(['verify', *{list(args)!r}, '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(rc, *sorted(set(sys.modules) - before))\n"
    )
    env = _child_env("1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rc, *added = proc.stdout.split()
    assert rc == "0" and "hodgefock.cli" in added
    return added


def test_serial_run_imports_no_pool_and_no_dataclasses(tmp_path):
    added = _modules_a_serial_run_adds(tmp_path, "weitzenboeck", "--dim", "1", "--n", "1")
    for name in ("multiprocessing", "concurrent.futures.process", "dataclasses", "inspect"):
        assert name not in added, name


@pytest.mark.parametrize(
    "args",
    [
        ("decomposition", "--max-dim", "2", "--max-n", "2"),
        ("weitzenboeck", "--dim", "1", "--n", "1"),
    ],
)
def test_serial_run_without_chaos_cases_never_loads_chaos(args, tmp_path):
    # chaos is the largest module; hodge and rep_theory load with the package.
    added = _modules_a_serial_run_adds(tmp_path, *args)
    assert "hodgefock.hodge" in added and "hodgefock.rep_theory" in added
    assert "hodgefock.chaos" not in added


# (grid, digest, seeded digest, sampled digest): the sha256 of the serial
# report, of the report as it read while chaos-truncation drew its h
# from the seed (_with_seeded_truncation), and of that report as it read
# while the split was sampled (_with_sampled_trials).
RECORDED_DIGESTS = [
    (
        ["all", "--max-dim", "3", "--max-n", "4", "--seed", "42"],
        "2b9fc46ef9b412cdf3af94f03a35b24dd8f57f6b03750762063baadd5a45fc1f",
        "9c4f28044598c527d6ba2d99415f730f9629e5abc14a194ab5fbfaf91d9828b3",
        "58669858cd0bcde5c1fbb258772cbbf10dd6f894385a67617b9edbacfe75cdb3",
    ),
    (
        ["chaos", "--max-dim", "5", "--max-n", "4", "--seed", "3"],
        "772771177215045a534f5836b0662a7e58fa7a5798e9113688411cfd54338c52",
        "f44534978b0f0f8e659a6583af7c00ca94ad1e66c573503ac0ac28adbd927318",
        "0d8d5c262d42ddaba0b78d26dbf29c7e548a2ace806f5766fbf921e39bbc5093",
    ),
    (
        ["all", "--max-dim", "4", "--max-n", "4", "--seed", "1"],
        "f4247cf17a35df7e6b5a6e8321e228e0d82e68629bdafeefb11dd25e15b3ef13",
        "0b89add226bc5ada25ddd151416398e6836e1c2cd37502f886adefab74425fc9",
        "e73e201f05f71a25b4ce91347c887743352de44b0d3c94fc9412a23e10a6b902",
    ),
    (
        ["decomposition", "--max-dim", "5", "--max-n", "4"],
        "88900725584cb4c366a1a8824355c264e265204423522081055c4ea7d75bd52a",
        "88900725584cb4c366a1a8824355c264e265204423522081055c4ea7d75bd52a",
        "4cf2545a1a6eac99958ebbe0e316cc9d97be8dcb5edf6205b90a1785fa790032",
    ),
    (
        ["rep", "--max-dim", "5", "--max-n", "5"],
        "c1c38dffcf2f5c666241c59bbcaeda57d356895aa3430e23c417d73c775904a6",
        "c1c38dffcf2f5c666241c59bbcaeda57d356895aa3430e23c417d73c775904a6",
        "537454fa995970fdec3aea4ce94221ecf611d70b659c03ffe289e064102fdeb1",
    ),
    (
        ["rep", "--max-dim", "6", "--max-n", "6"],
        "a216e7a988c67b7f2c4b1bf96a6e0dedca0224663d6fc6eb1e45045530a9fde4",
        "a216e7a988c67b7f2c4b1bf96a6e0dedca0224663d6fc6eb1e45045530a9fde4",
        "d4dba84592e9a9cf881481b11f204fc8e3d239cd9f85a61152f435796fac7f9d",
    ),
    (
        ["all", "--max-dim", "6", "--max-n", "7"],
        "b0260def2c416ee8572cb7b7a83b73081260cb688e520c96e03d7f4cf548dae6",
        "7e565c27a91b105cbd65e930e3470c6781cc05340c3a922327b0b2df9b23a523",
        "c8cf0b372a5d4cd7dc74c4d764c016fce5c3c5228253a81675ba933ab6baf6ef",
    ),
]


def test_pooled_run_in_real_processes_writes_the_recorded_bytes(tmp_path):
    # The pool forks while the report is open: multiprocessing flushes
    # stdout before each fork and its workers leave through os._exit, so no
    # byte is written twice, to stdout or to --out.
    grid, digest, *_ = RECORDED_DIGESTS[2]
    env = _child_env("2")
    argv = [sys.executable, "-m", "hodgefock", "verify", *grid, "--format", "json"]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    target = tmp_path / "r.json"
    again = subprocess.run([*argv, "--out", str(target)], env=env, stdout=subprocess.PIPE,
                           timeout=120)
    assert again.returncode == 0 and again.stdout == b""
    # The config names the --out path; no other byte differs.
    out = f'"out": {json.dumps(str(target))}'.encode("utf-8")
    assert proc.stdout.count(b'"out": null') == 1
    assert target.read_bytes() == proc.stdout.replace(b'"out": null', out)


# (filtered grid, sha256 of its `--format json` stdout).  A filtered run
# reads the neighbours of its blocks without reading their own cases, so
# these pin the records that whole grids read only together.
FILTERED_DIGESTS = [
    (["weitzenboeck", "--dim", "3", "--n", "3", "--k", "2"],
     "2c915a3e576735a361a222abd10c18bdb1f009bee3312cd4486f842bb75f0332"),
    (["chaos", "--max-dim", "5", "--max-n", "5", "--k", "2"],
     "030109ed5e7f7e3ad5171c33af34898172bc4e40807b3db3cf22950a396f3500"),
    (["split", "--max-dim", "5", "--max-n", "5", "--q", "1"],
     "6d58db527baf07d20611f1f9593fedd9239ec1e3cd6d2c9525346d505a0a7a16"),
    (["decomposition", "--max-dim", "6", "--max-n", "6", "--k", "3"],
     "8d6854a26e6eba3e209adf50895fef0da0de15f3dffefada88e67eb762d6e64d"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("grid, digest", FILTERED_DIGESTS, ids=[g[0] for g, _ in FILTERED_DIGESTS])
def test_filtered_grids_write_the_recorded_bytes(grid, digest, workers):
    env = _child_env(workers)
    argv = [sys.executable, "-m", "hodgefock", "verify", *grid, "--format", "json"]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, timeout=120)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def _with_sampled_trials(out: str) -> str:
    """The report as it read while the split was sampled: `trials` (20 by
    default) after `max_n` in the config and last in each split case."""
    data = json.loads(out)
    config = {}
    for key, value in data["config"].items():
        config[key] = value
        if key == "max_n":
            config["trials"] = 20
    data["config"] = config
    for case in data["cases"]:
        if case["name"].startswith("split "):
            case["details"]["trials"] = 20
    return json.dumps(data, indent=2) + "\n"


def _with_seeded_truncation(out: str) -> str:
    """The report as it read while each chaos-truncation case drew its h
    from the seed: h first in the details, from the oracle's draw; no
    defect degree when h is 0 off the first coordinate, so that h wedge
    e_1 vanished; and at d = 1 a pass with no degree, not a skip."""
    data = json.loads(out)
    seed = data["config"]["seed"]
    for case in data["cases"]:
        if case["name"].startswith("chaos-truncation "):
            d, n = case["params"]["d"], case["params"]["n"]
            h = oracles.seeded_h(seed, d, n)
            degrees = case["details"].get("defect_degrees", []) if any(h[1:]) else []
            case["status"] = "pass"
            case["details"] = {"h": [str(c) for c in h], "order": n, "defect_degrees": degrees}
    return json.dumps(data, indent=2) + "\n"


ADVERSARIAL_JSON = [
    "",
    "caf\u00e9 \u4e2d \U0001f600",
    '"',
    "\\",
    "".join(map(chr, range(32))) + "\x7f\u2028",
    [],
    {},
    [[], {}, [[]], {"a": {}}],
    {"": {"": []}},
    [True, 1, False, 0, None, -1, 10**40],
    {"\u00e9\"\\": [{"k": "p/q"}], "true": True, "one": 1},
    True,
    1,
    None,
]


@pytest.mark.parametrize("value", ADVERSARIAL_JSON, ids=range(len(ADVERSARIAL_JSON)))
def test_report_encoder_equals_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)
    inner = json.dumps({"x": value}, indent=2).replace("\n", "\n    ")
    assert cli._json({"x": value}, "\n    ") == inner


@pytest.mark.parametrize("value", [1.5, (1,), {1: 2}, Fraction(1, 2), {"a"}])
def test_report_encoder_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json([value])


@pytest.mark.parametrize("max_dim, max_n", [(4, 4), (6, 7)])
def test_report_encoder_equals_json_dumps_on_every_case(max_dim, max_n, monkeypatch):
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    report = run_verify(VerifyConfig(max_dim=max_dim, max_n=max_n))
    assert cli._json(report.config) == json.dumps(report.config, indent=2)
    for case in report.cases:
        assert cli._json(case) == json.dumps(case, indent=2), case["name"]


def test_report_bytes_match_the_recorded_digest(monkeypatch, capsys):
    # sha256 of the serial `verify <grid> --format json` output; any
    # refactor must keep these bytes.  Each deliberate report change maps
    # back to the bytes before it: the seeded chaos-truncation details,
    # then the two removed `trials` keys of the sampled split.  So the
    # report changed in those keys and statuses and nowhere else.
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    for grid, digest, seeded_digest, sampled_digest in RECORDED_DIGESTS:
        assert main(["verify", *grid, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, grid
        seeded = _with_seeded_truncation(out)
        assert hashlib.sha256(seeded.encode("utf-8")).hexdigest() == seeded_digest, grid
        old = _with_sampled_trials(seeded).encode("utf-8")
        assert hashlib.sha256(old).hexdigest() == sampled_digest, grid


def test_verify_path_runs_no_group_order_loop(monkeypatch, capsys):
    # The rep case reads S_n through its generators and one permutation
    # per cycle type.  The m!-term averagers and the n! permutation sweep
    # are test oracles (tests/oracles.py) that no hodgefock module binds,
    # and with every cache empty a serial run still passes with the
    # recorded bytes.
    loops = {"_average", "sym_subset", "alt_subset", "symmetric_group"}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hodgefock":
            assert not loops & set(vars(mod)), name
    clear_caches()
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    grid, digest, *_ = RECORDED_DIGESTS[2]
    assert grid == ["all", "--max-dim", "4", "--max-n", "4", "--seed", "1"]
    assert main(["verify", *grid, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _doubled_own_gram(label, real=fock_ops._gram_factor):
    """The diagonal of the gram matrix, doubled on H_{1,1}."""
    return real(label) * (2 if (len(label.sym), len(label.alt)) == (1, 1) else 1)


def _swapped_split(t, real=hodge.hodge_split):
    plus, minus = real(t)
    return minus, plus


@pytest.mark.parametrize(
    "name, stand_in",
    [("gram_matrix", _doubled_own_gram), ("hodge_split", _swapped_split)],
)
def test_split_case_fails_when_its_proof_breaks(name, stand_in, fresh_caches, monkeypatch):
    # A doubled gram matrix breaks only the adjointness that proves
    # orthogonality; a swapped split breaks the hodge_split check.
    assert hodge._case_split(2, 2, 1)[0] == "pass"
    # The gram matrix reaches the split as fock_ops._adjoint_residual's
    # diagonal, _gram_factor.
    target = (fock_ops, "_gram_factor") if name == "gram_matrix" else (hodge, name)
    monkeypatch.setattr(*target, stand_in)
    clear_caches()
    assert hodge._case_split(2, 2, 1)[0] == "fail"


def test_decomposition_case_checks_the_embedded_dimension(monkeypatch):
    # One vector less in the block and in the minus piece keeps direct
    # and dim_plus == ker_lower; only dim == block_dim sees it.
    assert rep_theory._case_decomposition(3, 3, 1)[0] == "pass"
    real = rep_theory.decomposition_dims

    def short(d, k, q):
        dim, dim_plus, dim_minus, direct = real(d, k, q)
        return dim - 1, dim_plus, dim_minus - 1, direct

    monkeypatch.setattr(rep_theory, "decomposition_dims", short)
    status, details = rep_theory._case_decomposition(3, 3, 1)
    assert status == "fail" and details["dim"] == 8


def test_exactness_case_checks_the_hook_kostka_ranks(fresh_caches, monkeypatch):
    # The ranks of lower and raise_ on each pattern block with r parts are
    # C(r-1, q) and C(r-1, q-1).  The report's rows read operator_rank too,
    # so the report is built and cached before the patch: after it, only
    # the check reads the short rank.  One rank short on the pattern (2, 1)
    # fails only the check, and the case names that pattern.
    exactness_report(3, 3)
    assert hodge._case_exactness(3, 3, 2)[0] == "pass"
    real = hodge.operator_rank

    def short(which, mu, k, q):
        return real(which, mu, k, q) - (which == "lower" and mu == (2, 1))

    monkeypatch.setattr(hodge, "operator_rank", short)
    status, details = hodge._case_exactness(3, 3, 2)
    assert status == "fail" and details["pattern"] == [2, 1] and details["expected"] == [1, 1]
    assert details["lower_exact"] and details["raise_exact"] and details["harmonic_dim"] == 0


def test_one_hook_formula_feeds_every_kostka_check(fresh_caches, monkeypatch):
    # exactness, decomposition and rep all read the hook ranks from
    # hodge._hook_ranks.  A stand-in one too high in the rank of lower at
    # (r, q) = (3, 1) fails each case at d = n = 3, k = 2, and each reports
    # the stand-in's numbers as expected.
    real = hodge._hook_ranks
    for case in (hodge._case_exactness, rep_theory._case_decomposition, rep_theory._case_rep):
        assert case(3, 3, 2)[0] == "pass"

    def off_by_one(r, q):
        low, up = real(r, q)
        return low + ((r, q) == (3, 1)), up

    for mod in (hodge, rep_theory):
        monkeypatch.setattr(mod, "_hook_ranks", off_by_one)
    clear_caches()
    expected = {
        hodge._case_exactness: [3, 1],
        rep_theory._case_decomposition: [4, 1, 3],
        rep_theory._case_rep: [3, 1, 3],
    }
    for case, numbers in expected.items():
        status, details = case(3, 3, 2)
        assert status == "fail" and details["expected"] == numbers, case.__name__


@pytest.mark.parametrize("d, n, k", [(3, 3, 1), (3, 3, 3), (2, 2, 0)])
def test_chaos_case_builds_one_field_per_block(d, n, k, monkeypatch):
    # The certificate reads the dictionary off one record for each pattern
    # block of H_{k,q} and of its neighbours H_{k-1,q+1} and H_{k+1,q-1},
    # in that order, and each record keys every label of its block.  The
    # records build no chaos field: no whole-block, per-label or random one.
    q = n - k
    clear_caches()
    records, keyed = [], set()
    real_record, real_key = chaos._chaos_pattern_holds, chaos.hermite_key

    def record(*sig):
        records.append(sig)
        return real_record(*sig)

    def key(label, ground):
        keyed.add((ground, label))
        return real_key(label, ground)

    def refused(t):
        raise AssertionError("a chaos field built on the verify path")

    monkeypatch.setattr(chaos, "_chaos_pattern_holds", record)
    monkeypatch.setattr(chaos, "hermite_key", key)
    monkeypatch.setattr(chaos, "chaos_field", refused)
    status, _ = chaos._case_chaos(d, n, k)
    assert status == "pass"
    blocks = [(mu, k + i, q - i) for i in (0, -1, 1) for mu, _ in weight_patterns(d, n)]
    assert records == blocks
    assert any(block_dim(*sig) for sig in blocks)
    assert {(sig[0], b) for sig in blocks for b in enum_basis(*sig)} <= keyed


# The round trip through monomials and the pairings it compares, which
# the chaos record does not run; the tests' oracles keep them.
READ_BACK = (
    "chaos.chaos_field",
    "chaos.FormField.hermite_coords",
    "chaos.HermiteExpansion.from_poly",
    "chaos.gaussian_inner",
    "tensor_core.inner",
)


def test_verify_path_reads_no_form_back(monkeypatch):
    # Each pattern block's chaos record reads the labels, the per-degree
    # tables and the Koszul model.  On serial all 6 7, every cache emptied
    # first, the round trip is refused in every hodgefock namespace that
    # binds it, FormField.from_hermite multiplies out only the ladder
    # tables' forms, and from_poly's two tables stay empty.
    clear_caches()

    def refused(*args, **kwargs):
        raise AssertionError("a form read back, or a pairing, on the verify path")

    modules = [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "hodgefock"]
    for key in READ_BACK:
        modname, name = key.split(".", 1)
        mod = importlib.import_module(f"hodgefock.{modname}")
        if "." in name:
            cls_name, meth = name.split(".")
            monkeypatch.setattr(getattr(mod, cls_name), meth, refused)
            continue
        real = getattr(mod, name)
        for other in modules:
            for attr, value in list(vars(other).items()):
                if value is real:
                    monkeypatch.setattr(other, attr, refused)
    callers = []
    real_from_hermite = vars(chaos.FormField)["from_hermite"].__func__

    def from_hermite(cls, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_from_hermite(cls, *args)

    monkeypatch.setattr(chaos.FormField, "from_hermite", classmethod(from_hermite))
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    report = run_verify(VerifyConfig(suite="all", max_dim=6, max_n=7))
    assert report.status == "pass" and len(report.cases) == 1302
    assert callers and set(callers) == {"_ladder_tables_hold"}
    assert chaos._monomial_in_he.cache_info().currsize == 0
    assert chaos._x_power_in_he.cache_info().currsize == 0


def test_chaos_cases_draw_nothing_from_the_seed(monkeypatch, capsys):
    # --seed stays in the config, and nothing else reads it: the reports
    # of two seeds differ only in config.seed.
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    outs = []
    for seed in ("0", "1"):
        argv = ["verify", "all", "--max-dim", "3", "--max-n", "3", "--seed", seed]
        assert main([*argv, "--format", "json"]) == 0
        outs.append(capsys.readouterr().out)
    assert [out.count(f'"seed": {seed},') for seed, out in enumerate(outs)] == [1, 1]
    assert outs[0].replace('"seed": 0,', '"seed": 1,') == outs[1]
    assert len(json.loads(outs[0])["cases"]) == 171


def test_serial_run_builds_no_random_generator(monkeypatch):
    # No verify case samples: a serial run passes with random.Random refused.
    def refused(self, *args, **kwargs):
        raise AssertionError("a random generator")

    clear_caches()
    monkeypatch.setattr(random.Random, "__init__", refused)
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    report = run_verify(VerifyConfig(suite="all", max_dim=5, max_n=6))
    assert report.status == "pass" and len(report.cases) == 840


def test_main_pass_exit_zero(capsys):
    rc = main(["verify", "weitzenboeck", "--max-dim", "2", "--max-n", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "pass"


def test_main_failure_exit_one(monkeypatch, capsys):
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    monkeypatch.setattr(hodge, "_case_weitzenboeck", lambda *a: ("fail", {}))
    rc = main(["verify", "weitzenboeck", "--max-dim", "1", "--max-n", "1", "--format", "json"])
    capsys.readouterr()
    assert rc == 1


def test_main_config_error_exit_two(capsys):
    rc = main(["verify", "all", "--max-dim", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_main_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_main_invalid_workers_env(monkeypatch, capsys):
    monkeypatch.setenv("HODGEFOCK_WORKERS", "zero")
    assert main(["verify", "weitzenboeck", "--max-dim", "1", "--max-n", "1"]) == 2
    monkeypatch.setenv("HODGEFOCK_WORKERS", "0")
    assert main(["verify", "weitzenboeck", "--max-dim", "1", "--max-n", "1"]) == 2
    capsys.readouterr()


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "weitzenboeck",
            "--max-dim",
            "1",
            "--max-n",
            "1",
            "--format",
            "json",
            "--out",
            str(target),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = target.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text)["status"] == "pass"


def test_text_render_has_counts_and_status():
    report = run_verify(small(suite="weitzenboeck", max_dim=1, max_n=2, format="text"))
    text = render_report(report, "text")
    lines = text.splitlines()
    assert lines[0].startswith("hodgefock ")
    assert any("passed," in ln and "failed," in ln for ln in lines)
    assert lines[-1] == "status: pass"
    with pytest.raises(ConfigError):
        render_report(report, "yaml")


def test_rationals_render_as_exact_strings():
    report = run_verify(small(suite="weitzenboeck", max_dim=1, max_n=1))
    assert len(report.cases) == 2
    for case in report.cases:
        assert case["details"]["defect"] == "0"
        assert isinstance(case["details"]["defect"], str)


def test_main_unwritable_out_exits_two_before_any_case(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "_run_case", lambda spec: ran.append(spec))
    target = tmp_path / "missing" / "r.json"
    argv = ["verify", "weitzenboeck", "--max-dim", "2", "--max-n", "2", "--out", str(target)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert ran == []
    assert not target.parent.exists()


def test_main_empty_out_exits_two_before_any_case(monkeypatch, capsys):
    # open("", "w") fails, so an empty path is refused like any other
    # unwritable one instead of sending the report to stdout.
    ran = []
    monkeypatch.setattr(cli, "_run_case", lambda spec: ran.append(spec))
    assert main(["verify", "weitzenboeck", "--dim", "1", "--n", "1", "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    assert ran == []


# Listed in the benchmark's LAYERS but not called by any verify suite.
# intersect is the decomposition's old route; orbit_span, orbit_split_spaces
# and action_trace the rep suite's, with embed and permute, which wrote
# their full tensors; the linalg eliminations gave every Fock rank before
# the certificates' traces; operator_matrix gave every Fock and Gaussian
# identity before the Koszul model; exp_vector and commutation_defect gave
# the chaos-truncation defect on one drawn h before it held for every h;
# chaos_field, from_poly, gaussian_inner and inner were the chaos record's
# round trip through monomials before it read the per-degree tables.
# The tests keep them as oracles.
OFF_THE_VERIFY_PATH = {
    "chaos.HermiteExpansion.from_poly",
    "chaos.chaos_field",
    "chaos.commutation_defect",
    "chaos.exp_vector",
    "chaos.gaussian_inner",
    "fock_ops.operator_matrix",
    "fock_ops.permute",
    "hodge.random_tensor",
    "linalg.EchelonBasis.insert",
    "linalg.kernel_basis",
    "linalg.matrix_rank",
    "rep_theory.action_trace",
    "rep_theory.embedded_subspace",
    "rep_theory.intersect",
    "rep_theory.orbit_span",
    "rep_theory.orbit_split_spaces",
    "rep_theory.span_all_positions",
    "tensor_core.embed",
    "tensor_core.inner",
}


def _traced_layers() -> dict:
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_layer_resolves_and_runs_on_the_verify_path(monkeypatch, capsys):
    # The benchmark's tracer times the functions named in LAYERS; a name
    # that no longer resolves, or that verify never calls, gives metrics
    # that read nothing.  Counting wrappers go into every hodgefock
    # namespace that binds a name, as the tracer's do.  Every layer module
    # is loaded first: one loaded later would bind a wrapper that
    # monkeypatch does not undo.
    layers = _traced_layers()
    for modname in layers:
        importlib.import_module(f"hodgefock.{modname}")
    modules = [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "hodgefock"]
    clear_caches()
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for modname, names in layers.items():
        mod = importlib.import_module(f"hodgefock.{modname}")
        for name in names:
            key = f"{modname}.{name}"
            calls[key] = 0
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                assert raw is not None, key
                if isinstance(raw, classmethod):
                    monkeypatch.setattr(cls, meth, classmethod(counting(key, raw.__func__)))
                else:
                    monkeypatch.setattr(cls, meth, counting(key, raw))
                continue
            orig = getattr(mod, name, None)
            assert orig is not None, key
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        monkeypatch.setattr(other, attr, counting(key, orig))
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    assert main(["verify", "all", "--max-dim", "2", "--max-n", "3", "--format", "json"]) == 0
    capsys.readouterr()
    assert {key for key, n in calls.items() if not n} <= OFF_THE_VERIFY_PATH


# Every route that writes a key of the tensor power or eliminates there;
# rep_theory binds them all.  Then every elimination: linalg binds them.
TENSOR_POWER = (
    "embed", "permute", "_position_span", "orbit_span", "orbit_split_spaces", "action_trace",
)
ELIMINATION = ("kernel_basis", "matrix_rank")
GUARDED_RUNS = {
    "all-5-6": (VerifyConfig(suite="all", max_dim=5, max_n=6), 840),
    "decomposition-9-9": (VerifyConfig(suite="decomposition", max_dim=9, max_n=9), 486),
    "rep-9-9": (VerifyConfig(suite="rep", max_dim=9, max_n=9), 486),
}


@pytest.mark.parametrize("run", GUARDED_RUNS)
def test_verify_builds_no_vector_or_span_in_the_tensor_power(run, monkeypatch):
    # rep and decomposition read S_n in position-set coordinates, and
    # every Fock rank is a trace of a block's certificate: with every
    # tensor-power route and every elimination refused in every hodgefock
    # namespace that binds it, EchelonBasis.insert refused, and no Subspace
    # built (intersect and the position families build one), a serial run
    # still passes with every cache emptied first.  The n = 9 grids keep
    # the n!-key routes out: they would take seconds here.
    clear_caches()

    def refused(*args, **kwargs):
        raise AssertionError("a vector or span of the tensor power, or an elimination")

    modules = [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "hodgefock"]
    routes = [vars(rep_theory)[name] for name in TENSOR_POWER]
    routes += [vars(linalg)[name] for name in ELIMINATION]
    for real in routes:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, refused)
    monkeypatch.setattr(rep_theory.Subspace, "__init__", refused)
    monkeypatch.setattr(linalg.EchelonBasis, "insert", refused)
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    cfg, cases = GUARDED_RUNS[run]
    report = run_verify(cfg)
    assert report.status == "pass" and len(report.cases) == cases
