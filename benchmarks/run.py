#!/usr/bin/env python3
"""hodgefock benchmark: serial `verify` time on two grids, plus a per-layer trace.

Run from the repository root:

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 55 --trace 0

With `--trace 0` the real CLI (`python3 -m hodgefock verify ...`) runs
serially in a child process pinned to the CPU that is fastest at the
time: first several times on a two-case grid for `setup_s`, then on the
workload's grid again and again while the next run would still end
within `--seconds` of the start (at least once).  Each metric is the
median over those runs.  With
`--trace 1` the CLI runs the grid once through a pool of POOL_WORKERS
processes, and the per-layer metrics come from two serial in-process
passes of `benchmarks/tracer.py`: one that times only the cases, and one
that times every layer function.  Every report is checked: exit code,
JSON shape, the expected case names, `fail` statuses and the closed-form
block dimensions; in a traced run, the pooled and in-process reports of
one seed must also be byte-identical.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it
print every metric with its unit, `fail_share`, the report sha256 and the
run metadata, which are also written to `.bench_build/hodgefock/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
OUT = ROOT / ".bench_build" / "hodgefock"
# The report names its --out path, so every run of a grid writes the same
# relative path: the report bytes then depend on neither the run kind nor
# where the checkout lives.
REPORT = Path(".bench_build", "hodgefock", "report.json")
SETUP_REPORT = Path(".bench_build", "hodgefock", "report-setup.json")

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import CASE_SPAN, LAYERS, span_totals  # noqa: E402

SUITES = ("weitzenboeck", "exactness", "split", "decomposition", "rep", "chaos")
CASE_KINDS = SUITES + ("chaos-truncation",)
# Suites whose `details.dim` is the dimension of the block H_{k,q}.
DIM_SUITES = ("weitzenboeck", "exactness", "split", "decomposition", "chaos")

SETUP_ARGS = ("weitzenboeck", "--dim", "1", "--n", "1")
SETUP_REPS = 11
# Every run must end within 180 s; leave room for the summary.
BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    suite: str
    max_dim: int
    max_n: int

    def verify_args(self) -> list[str]:
        return [self.suite, "--max-dim", str(self.max_dim), "--max-n", str(self.max_n)]


# Why each workload was chosen is in BENCHMARK.json and benchmarks/README.md.
WORKLOADS = {
    "desk": Workload("all", 4, 4),
    "tensor-power": Workload("decomposition", 5, 4),
}
# Workers of the pooled run in a traced run; never more than `nproc` (2 here).
POOL_WORKERS = 2
# Run i of a measurement verifies with seed `--seed + i * SEED_STRIDE`, so the
# median spans several seeds: chaos-truncation work depends on the seed.
SEED_STRIDE = 1_000_000


# -- choosing a CPU ------------------------------------------------------

# Each CPU of the shared host is, at times and independently of the other,
# slowed by up to 1.7 times for seconds to minutes, CPU time as much as
# wall time.  So each timed run is pinned to the CPU on which a fixed probe
# ran fastest just before it; only when every CPU is slow is the run slow.
PROBES_PER_CPU = 3


def probe_work(n: int = 8000) -> int:
    """Fixed rational accumulation in a dict, like the program's inner loops.

    It does not use hodgefock, so a change to the program leaves it alone.
    """
    acc: dict = {}
    for i in range(n):
        key = (i % 13, i % 11)
        acc[key] = acc.get(key, 0) + Fraction(i % 13 + 1, i % 11 + 1)
    return len(acc)


class CpuPicker:
    """Pins this process, and so the runs it starts, to the fastest CPU now."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.picks: list = []  # (cpu, median probe seconds on it) per call of pin

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, [cpu])
        times = []
        for _ in range(PROBES_PER_CPU):
            t0 = time.perf_counter()
            probe_work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def pin(self) -> None:
        probes = {cpu: self._probe(cpu) for cpu in self.cpus}
        cpu = min(probes, key=probes.get)
        os.sched_setaffinity(0, [cpu])
        self.picks.append((cpu, probes[cpu]))


# -- running a child process ---------------------------------------------


@dataclass
class ProcRun:
    exit_code: int | None  # None: killed at the deadline
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(cmd: list[str], env: dict, timeout: float, stderr_path: Path) -> ProcRun:
    """Run cmd through spawn.py to its end; return its wall time and resource usage.

    When `timeout` runs out, the whole session of the run is killed.
    """
    record = OUT / "spawn.json"
    record.unlink(missing_ok=True)
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(SPAWN), str(record), *cmd], env=env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return ProcRun(exit_code=None, wall_s=timeout, cpu_s=0.0, peak_rss_mb=0.0)
    if not record.exists():
        return ProcRun(exit_code=proc.returncode or 1, wall_s=0.0, cpu_s=0.0, peak_rss_mb=0.0)
    with open(record, encoding="utf-8") as fh:
        return ProcRun(**json.load(fh))


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["HODGEFOCK_WORKERS"] = str(workers)
    return env


def verify_argv(verify_args, seed: int, report: Path) -> list[str]:
    """Arguments of one `hodgefock verify` run writing a JSON report to `report`.

    Removes any earlier report first, so a run that writes none cannot pass.
    """
    (ROOT / report).unlink(missing_ok=True)
    return ["verify", *verify_args, "--seed", str(seed), "--format", "json", "--out", str(report)]


def run_cli(verify_args, workers: int, seed: int, report: Path, deadline: float) -> ProcRun:
    cmd = [sys.executable, "-m", "hodgefock", *verify_argv(verify_args, seed, report)]
    return run_process(cmd, child_env(workers), deadline - time.monotonic(), OUT / "stderr.txt")


def run_tracer(mode: str, wl: Workload, seed: int, deadline: float) -> tuple[ProcRun, dict | None]:
    record_path = OUT / f"trace-{mode}.json"
    record_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(TRACER), "--mode", mode, "--out", str(record_path), "--",
        *verify_argv(wl.verify_args(), seed, REPORT),
    ]
    proc = run_process(cmd, child_env(1), deadline - time.monotonic(), OUT / "stderr.txt")
    if proc.exit_code != 0 or not record_path.exists():
        return proc, None
    with open(record_path, encoding="utf-8") as fh:
        return proc, json.load(fh)


# -- checking a report ---------------------------------------------------


def block_dim(d: int, k: int, q: int) -> int:
    return comb(d + k - 1, k) * comb(d, q)


def expected_cases(suite: str, dims, ns) -> set[str]:
    names = set()
    for s in SUITES if suite == "all" else (suite,):
        for d in dims:
            for n in ns:
                names.update(f"{s} d={d} n={n} k={k}" for k in range(n + 1))
                if s == "chaos":
                    names.add(f"chaos-truncation d={d} n={n}")
    return names


@dataclass
class Check:
    attempted: int
    failed: int
    problems: list
    sha256: str | None = None


def check_report(path: Path, exit_code, suite: str, dims, ns, seed: int) -> Check:
    """Check one report against what the grid and seed say it must hold.

    A killed run, a non-zero exit or a report that cannot be read counts
    every case as failed.
    """
    expected = expected_cases(suite, dims, ns)
    if exit_code is None:
        return Check(len(expected), len(expected), ["killed at the time limit"])
    try:
        raw = path.read_bytes()
        report = json.loads(raw)
        cases = report["cases"]
        names = [c["name"] for c in cases]
        problems = []
        for c in cases:
            if c["status"] not in ("pass", "skip", "fail"):
                problems.append(f"{c['name']}: unknown status {c['status']!r}")
            dim = c["details"].get("dim")
            if c["name"].split(" ")[0] in DIM_SUITES and dim is not None:
                p = c["params"]
                if dim != block_dim(p["d"], p["k"], p["n"] - p["k"]):
                    problems.append(f"{c['name']}: dim {dim} is not the block dimension")
        seed_ok = report["config"]["seed"] == seed
        status = report["status"]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        return Check(len(expected), len(expected), [f"unreadable report: {e!r}"])
    failed = sum(c["status"] == "fail" for c in cases)
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
        failed = len(expected)
    if status != "pass":
        problems.append(f"report status {status!r}")
    if not seed_ok:
        problems.append("report config does not carry the benchmark seed")
    if len(names) != len(set(names)) or set(names) != expected:
        problems.append(f"case names differ from the {len(expected)} expected")
    if failed:
        problems.append(f"{failed} cases failed")
    return Check(len(expected), failed, problems, hashlib.sha256(raw).hexdigest())


def grid(wl: Workload):
    return range(1, wl.max_dim + 1), range(1, wl.max_n + 1)


# -- the two kinds of run ------------------------------------------------


def run_setup(seed: int, deadline: float) -> tuple[ProcRun, Check]:
    """One serial run of the two-case set-up grid."""
    run = run_cli(SETUP_ARGS, 1, seed, SETUP_REPORT, deadline)
    return run, check_report(ROOT / SETUP_REPORT, run.exit_code, "weitzenboeck", [1], [1], seed)


def measure(wl: Workload, seed: int, seconds: int, deadline: float):
    """Untraced runs: end-to-end metrics as medians over repeated CLI runs.

    The set-up runs come first, then grid runs while the next one would
    still end within `seconds` of the start (at least one).  Each run is
    pinned to the CPU that is fastest just before it (see CpuPicker).
    """
    picker = CpuPicker()
    t0 = time.monotonic()
    setups, checks = [], []
    for _ in range(SETUP_REPS):
        picker.pin()
        run, check = run_setup(seed, deadline)
        checks.append(check)
        if run.exit_code is None:
            break
        setups.append(run.wall_s)
    runs, seeds, timed = [], [], []
    t1 = time.monotonic()
    while True:
        seeds.append(seed + len(runs) * SEED_STRIDE)
        picker.pin()
        run = run_cli(wl.verify_args(), 1, seeds[-1], REPORT, deadline)
        runs.append(run)
        timed.append(check_report(ROOT / REPORT, run.exit_code, wl.suite, *grid(wl), seeds[-1]))
        now = time.monotonic()
        if run.exit_code is None or now - t0 + (now - t1) / len(runs) > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        # A set-up run that was killed leaves `setups` short; the check says so.
        "setup_s": (statistics.median(setups or [0.0]), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
    }
    info = {
        "verify_seeds": seeds,
        "wall_s_runs": [r.wall_s for r in runs],
        "cpu_s_runs": [r.cpu_s for r in runs],
        "setup_s_runs": setups,
        "cpu_picks": picker.picks,
    }
    return metrics, timed, checks, info


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def trace(wl: Workload, seed: int, deadline: float):
    """Traced run: one pooled CLI run, then two serial in-process passes."""
    run = run_cli(wl.verify_args(), POOL_WORKERS, seed, REPORT, deadline)
    checks = [check_report(ROOT / REPORT, run.exit_code, wl.suite, *grid(wl), seed)]
    info = {"pooled_wall_s": run.wall_s}
    records = {}
    for mode in ("cases", "full"):
        proc, record = run_tracer(mode, wl, seed, deadline)
        code = proc.exit_code if record is None else record["exit_code"]
        checks.append(check_report(ROOT / REPORT, code, wl.suite, *grid(wl), seed))
        records[mode] = record
    if any(r is None for r in records.values()):
        return {}, checks, info
    cases, full = records["cases"], records["full"]
    info.update(traced_wall_s=full["wall_s"], untraced_wall_s=cases["wall_s"])
    return layer_metrics(full, cases, run.wall_s), checks, info


def layer_metrics(full: dict, cases: dict, pooled_wall: float) -> dict:
    """Per-layer metrics from a `full` and a `cases` tracer record.

    `pooled_wall` is the wall time of the same grid run through a pool of
    POOL_WORKERS processes.
    """
    wall = full["wall_s"]
    totals = span_totals(full["spans"])
    m: dict = {}
    for module, names in LAYERS.items():
        module_self = 0.0
        for name in names:
            calls, self_t = totals.get(f"{module}.{name}", (0, 0.0))
            m[f"{module}.{name}.calls"] = (calls, "count")
            m[f"{module}.{name}.self_s"] = (self_t, "s")
            module_self += self_t
        m[f"{module}.self_share"] = (_share(module_self, wall), "ratio")
    m["cli.self_share"] = (_share(totals.get(CASE_SPAN, (0, 0.0))[1], wall), "ratio")
    m["linalg.insert.grew_share"] = (_share(full["grown"], full["inserts"]), "ratio")
    m["rep_theory.subspace_nnz.max"] = (full["subspace_nnz_max"], "count")
    case_s = cases["case_s"]
    times = sorted(case_s.values(), reverse=True)
    m["cli.case_s.p50"] = (statistics.median(times), "s")
    m["cli.case_s.max"] = (times[0], "s")
    m["cli.top10_share"] = (_share(sum(times[:10]), sum(times)), "ratio")
    for kind in CASE_KINDS:
        m[f"cli.suite.{kind}.s"] = (
            sum(t for name, t in case_s.items() if name.split(" ")[0] == kind), "s")
    m["cli.pool_busy_share"] = (_share(sum(times), POOL_WORKERS * pooled_wall), "ratio")
    m["trace.overhead_share"] = (_share(wall - cases["wall_s"], cases["wall_s"]), "ratio")
    m["trace.coverage"] = (_share(sum(r[1] for r in totals.values()), wall), "ratio")
    return m


# -- metadata and output -------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hodgefock_workers": POOL_WORKERS if args.trace else 1,
        "git_commit": git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hodgefock benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hodgefock" / "cli.py").is_file():
        print(f"error: no hodgefock source under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    meta = metadata(args)
    deadline = time.monotonic() + BUDGET_S
    # Untimed: compiles the bytecode of a fresh checkout and warms the file cache.
    _, warm = run_setup(args.seed, deadline)
    if args.trace:
        metrics, timed, info = trace(wl, args.seed, deadline)
        setup_checks = []
    else:
        metrics, timed, setup_checks, info = measure(wl, args.seed, args.seconds, deadline)
    checks = [warm, *timed, *setup_checks]
    meta["loadavg_1m_end"] = os.getloadavg()[0]

    problems = [p for c in checks for p in c.problems]
    shas = [c.sha256 for c in timed]
    if args.trace and len(set(shas)) > 1:
        problems.append("the pooled and traced reports of one seed differ")
    attempted = sum(c.attempted for c in timed)
    failed = sum(c.failed for c in timed)
    correct = not problems and bool(metrics)

    result = {
        "meta": meta,
        "report_sha256": shas,
        "fail_share": _share(failed, attempted),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **info,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    for p in problems[:20]:
        print(f"problem: {p}")
    print(f"workload {args.workload}: seed {args.seed}, report sha256 {' '.join(map(str, shas))}")
    print("meta: " + json.dumps(meta))
    print(f"{'fail_share':<40} {result['fail_share']:>14.6g} ratio  ({failed}/{attempted} cases)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
