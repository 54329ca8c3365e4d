"""Driver behavior: determinism, report schema, exit codes, filters."""

import hashlib
import json

import pytest

import hodgefock.cli as cli
import hodgefock.fock_ops as fock_ops
import hodgefock.hodge as hodge
from hodgefock import ConfigError, block_dim, exactness_report
from hodgefock.cli import VerifyConfig, main, parse_report, render_report, run_verify


def small(**kwargs):
    base = dict(suite="all", max_dim=2, max_n=2, seed=7, format="json")
    base.update(kwargs)
    return VerifyConfig(**base)


def test_run_verify_is_deterministic():
    a = run_verify(small())
    b = run_verify(small())
    assert a.as_dict() == b.as_dict()
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
    assert again.as_dict() == report.as_dict()


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
    assert list(small().as_dict()) == [
        "suite", "max_dim", "max_n", "seed", "dim", "n", "k", "q", "format", "out",
    ]


def test_exactness_report_is_built_once_per_grid_point(monkeypatch):
    calls = []

    def counted(d, n):
        calls.append((d, n))
        return exactness_report(d, n)

    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    monkeypatch.setattr(cli, "exactness_report", counted)
    cli._exactness_report.cache_clear()
    try:
        report = run_verify(small(suite="exactness", max_dim=2, max_n=3))
    finally:
        cli._exactness_report.cache_clear()
    assert report.status == "pass" and len(report.cases) == 2 * (2 + 3 + 4)
    assert sorted(calls) == [(d, n) for d in (1, 2) for n in (1, 2, 3)]


def test_rank_nullity_check_can_fail(monkeypatch):
    # Kernels come from their own elimination, so a kernel that loses a
    # vector breaks rank + kernel = dim and fails the case.
    real = hodge.kernel_basis
    monkeypatch.setattr(hodge, "kernel_basis", lambda cols: real(cols)[:-1])
    cli._exactness_report.cache_clear()
    try:
        assert not exactness_report(2, 2).rank_nullity_ok()
        status, _ = cli._case_exactness(2, 2, 1, 0)
    finally:
        cli._exactness_report.cache_clear()
    assert status == "fail"


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
    monkeypatch.setitem(cli._CASES, "weitzenboeck", lambda *a: ("fail", {"forced": True}))
    report = run_verify(small(suite="weitzenboeck", max_dim=1, max_n=1))
    assert report.status == "fail"
    assert all(c["details"] == {"forced": True} for c in report.cases)


def test_exception_in_case_is_reported_not_raised(monkeypatch):
    def boom(*args):
        raise RuntimeError("synthetic")

    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    monkeypatch.setitem(cli._CASES, "weitzenboeck", boom)
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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("HODGEFOCK_WORKERS", "2")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == serial
    assert captured.err == (
        "warning: process pool failed (OSError: no semaphores); running cases serially\n"
    )


def test_pool_is_never_larger_than_the_case_list(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for the executor: records its size, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, specs, chunksize=1):
            return map(fn, specs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("HODGEFOCK_WORKERS", "8")
    report = run_verify(small(suite="weitzenboeck", max_dim=1, max_n=1))
    assert len(report.cases) == 2 and report.status == "pass"
    run_verify(small(suite="weitzenboeck", max_dim=3, max_n=3))
    assert sizes == [2, 8]


RECORDED_DIGESTS = [
    (
        ["all", "--max-dim", "3", "--max-n", "4", "--seed", "42"],
        "9c4f28044598c527d6ba2d99415f730f9629e5abc14a194ab5fbfaf91d9828b3",
        "58669858cd0bcde5c1fbb258772cbbf10dd6f894385a67617b9edbacfe75cdb3",
    ),
    (
        ["chaos", "--max-dim", "5", "--max-n", "4", "--seed", "3"],
        "f44534978b0f0f8e659a6583af7c00ca94ad1e66c573503ac0ac28adbd927318",
        "0d8d5c262d42ddaba0b78d26dbf29c7e548a2ace806f5766fbf921e39bbc5093",
    ),
    (
        ["all", "--max-dim", "4", "--max-n", "4", "--seed", "1"],
        "0b89add226bc5ada25ddd151416398e6836e1c2cd37502f886adefab74425fc9",
        "e73e201f05f71a25b4ce91347c887743352de44b0d3c94fc9412a23e10a6b902",
    ),
    (
        ["decomposition", "--max-dim", "5", "--max-n", "4"],
        "88900725584cb4c366a1a8824355c264e265204423522081055c4ea7d75bd52a",
        "4cf2545a1a6eac99958ebbe0e316cc9d97be8dcb5edf6205b90a1785fa790032",
    ),
]


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


def test_report_bytes_match_the_recorded_digest(monkeypatch, capsys):
    # sha256 of the serial `verify <grid> --format json` output; any
    # refactor must keep these bytes.  Restoring the two removed `trials`
    # keys must give back the bytes of the sampled split, so the report
    # changed in those keys and nowhere else.
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    for grid, digest, sampled_digest in RECORDED_DIGESTS:
        assert main(["verify", *grid, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, grid
        old = _with_sampled_trials(out).encode("utf-8")
        assert hashlib.sha256(old).hexdigest() == sampled_digest, grid


def _doubled_own_gram(d, k, q):
    g = fock_ops.gram_matrix(d, k, q)
    return g.scale(2) if (k, q) == (1, 1) else g


def _swapped_split(t):
    plus, minus = hodge.hodge_split(t)
    return minus, plus


@pytest.mark.parametrize(
    "name, stand_in",
    [("gram_matrix", _doubled_own_gram), ("hodge_split", _swapped_split)],
)
def test_split_case_fails_when_its_proof_breaks(name, stand_in, monkeypatch):
    # A doubled gram matrix breaks only the adjointness that proves
    # orthogonality; a swapped split breaks the hodge_split check.
    assert cli._case_split(2, 2, 1, 0)[0] == "pass"
    monkeypatch.setattr(cli, name, stand_in)
    assert cli._case_split(2, 2, 1, 0)[0] == "fail"


def test_decomposition_case_checks_the_embedded_dimension(monkeypatch):
    # One vector less in the block and in the minus piece keeps direct
    # and dim_plus == ker_lower; only dim == block_dim sees it.
    assert cli._case_decomposition(3, 3, 1, 0)[0] == "pass"
    real = cli.decomposition_dims

    def short(d, k, q):
        dim, dim_plus, dim_minus, direct = real(d, k, q)
        return dim - 1, dim_plus, dim_minus - 1, direct

    monkeypatch.setattr(cli, "decomposition_dims", short)
    status, details = cli._case_decomposition(3, 3, 1, 0)
    assert status == "fail" and details["dim"] == 8


@pytest.mark.parametrize("d, n, k", [(3, 3, 1), (3, 3, 3), (2, 2, 0)])
def test_chaos_case_builds_one_field_per_block(d, n, k, monkeypatch):
    # The certificate reads the dictionary off one field for each
    # non-empty block among H_{k,q} and its neighbours H_{k-1,q+1} and
    # H_{k+1,q-1}; there is no per-label field and no random field.
    q = n - k
    for cache in (cli._chaos_block_holds, cli._hermite_table_holds):
        cache.cache_clear()
    built = []
    original = cli.chaos_field

    def counted(t):
        built.append(t.signature)
        return original(t)

    monkeypatch.setattr(cli, "chaos_field", counted)
    status, _ = cli._case_chaos(d, n, k, 0)
    assert status == "pass"
    blocks = [(d, k + i, q - i) for i in (0, -1, 1)]
    assert built == [sig for sig in blocks if block_dim(*sig)]


def test_chaos_cases_draw_nothing_from_the_seed(monkeypatch, capsys):
    # Only chaos-truncation draws from the seed (its vector h); the chaos
    # case bytes are the same for every seed.
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    drawn = []
    real = cli._rng
    monkeypatch.setattr(cli, "_rng", lambda seed, *tags: drawn.append(tags[0]) or real(seed, *tags))
    outs = []
    for seed in ("0", "1"):
        argv = ["verify", "chaos", "--max-dim", "3", "--max-n", "3", "--seed", seed]
        assert main([*argv, "--format", "json"]) == 0
        cases = json.loads(capsys.readouterr().out)["cases"]
        outs.append(json.dumps([c for c in cases if c["name"].startswith("chaos ")], indent=2))
    assert outs[0] == outs[1] and len(json.loads(outs[0])) == 27
    assert set(drawn) == {"trunc"}


def test_main_pass_exit_zero(capsys):
    rc = main(["verify", "weitzenboeck", "--max-dim", "2", "--max-n", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "pass"


def test_main_failure_exit_one(monkeypatch, capsys):
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    monkeypatch.setitem(cli._CASES, "weitzenboeck", lambda *a: ("fail", {}))
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
