"""Batch verification driver.

`hodgefock verify <suite>` sweeps the identity checks over a parameter
grid d in 1..max_dim, n in 1..max_n and all k, one case per block, and
emits a report.  This module is only the driver: configuration, the
case grid, the pool and the report.  A case spec is (kind, name, d, n,
k), and each case body, _case_<kind>(d, n, k), lives beside the math it
checks (hodge, rep_theory, chaos); --seed is only recorded in the
config.  hodge and rep_theory load with the package; a run imports chaos
only when it has a chaos case, once, before the pool forks.

Reports are deterministic given the config: no timestamps, no timings,
rationals rendered as exact "p/q" strings, cases sorted by
(suite, d, n, k, name).  Cases run on a process pool whose size is taken
from HODGEFOCK_WORKERS when set, else from the CPUs this process may run
on; results come back in case order either way, so the output does not
depend on the worker count.  With HODGEFOCK_WORKERS=1 the cases run in
this process, and the pool's modules (multiprocessing and its
dependencies) are never imported.

The report is streamed: _cases yields the case records in spec order and
_write_report encodes each into the sink as it arrives, status last.  A
run holds neither the case list nor the report text, and a run stopped
mid-way leaves a truncated report.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from importlib import import_module
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from . import __version__
from .errors import ConfigError
from .fock_ops import lower, raise_  # noqa: F401  (benchmarks/test_bench.py reads them)

SUITES = ("weitzenboeck", "exactness", "split", "decomposition", "rep", "chaos")


def _writable(path: str) -> bool:
    """Whether open(path, "w") can succeed, judged without creating the file."""
    if not path:
        return False
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    return os.access(os.path.dirname(path) or ".", os.W_OK)


class VerifyConfig(NamedTuple):
    suite: str = "all"
    max_dim: int = 3
    max_n: int = 4
    seed: int = 0
    dim: int | None = None
    n: int | None = None
    k: int | None = None
    q: int | None = None
    format: str = "text"
    out: str | None = None

    def validate(self) -> None:
        if self.suite != "all" and self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.max_dim < 1:
            raise ConfigError(f"max_dim must be >= 1, got {self.max_dim}")
        if self.max_n < 1:
            raise ConfigError(f"max_n must be >= 1, got {self.max_n}")
        if self.format not in ("json", "text"):
            raise ConfigError(f"unknown format {self.format!r}")
        for name in ("dim", "n"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        for name in ("k", "q"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v}")
        if None not in (self.n, self.k, self.q) and self.k + self.q != self.n:
            raise ConfigError(f"inconsistent filters: k + q = {self.k + self.q} != n = {self.n}")
        if self.out is not None and not _writable(self.out):
            raise ConfigError(f"cannot write the report to {self.out!r}")


class Report(NamedTuple):
    tool: str
    version: str
    config: dict
    cases: list
    status: str = "pass"


# The module of each kind of case; it defines the body as _case_<kind>,
# "-" read as "_".
_HOMES = {
    "weitzenboeck": "hodge",
    "exactness": "hodge",
    "split": "hodge",
    "decomposition": "rep_theory",
    "rep": "rep_theory",
    "chaos": "chaos",
    "chaos-truncation": "chaos",
}


def _run_case(spec):
    label, name, d, n, k = spec
    try:
        home = import_module(f".{_HOMES[label]}", __package__)
        status, details = getattr(home, "_case_" + label.replace("-", "_"))(d, n, k)
    except Exception as e:
        status, details = "fail", {"error": f"{type(e).__name__}: {e}"}
    return {"name": name, "params": {"d": d, "n": n, "k": k}, "status": status, "details": details}


def _case_specs(cfg: VerifyConfig) -> list:
    # Built in report order: suites sorted by name, then d, n, k, with a
    # chaos-truncation case after the k = n chaos case of its (d, n).
    suites = sorted(SUITES) if cfg.suite == "all" else [cfg.suite]
    d_values = [cfg.dim] if cfg.dim is not None else list(range(1, cfg.max_dim + 1))
    if cfg.n is not None:
        n_values = [cfg.n]
    elif cfg.k is not None and cfg.q is not None:
        n_values = [cfg.k + cfg.q]
    else:
        n_values = list(range(1, cfg.max_n + 1))
    specs = []
    for suite in suites:
        for d in d_values:
            for n in n_values:
                for k in range(n + 1):
                    if cfg.k is not None and k != cfg.k:
                        continue
                    if cfg.q is not None and n - k != cfg.q:
                        continue
                    name = f"{suite} d={d} n={n} k={k}"
                    specs.append((suite, name, d, n, k))
                if suite == "chaos":
                    if cfg.k is not None and cfg.k != n:
                        continue
                    if cfg.q is not None and cfg.q != 0:
                        continue
                    name = f"chaos-truncation d={d} n={n}"
                    specs.append(("chaos-truncation", name, d, n, n))
    return specs


def _worker_budget() -> int:
    env = os.environ.get("HODGEFOCK_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"HODGEFOCK_WORKERS must be an integer, got {env!r}")
        if workers < 1:
            raise ConfigError(f"HODGEFOCK_WORKERS must be >= 1, got {workers}")
        return workers
    # The CPUs this process may run on, which taskset or a cpuset can limit.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, 8)


def _process_pool(workers: int):
    """A pool of `workers` processes.  It is imported here, so that a serial
    run never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _plan(cfg: VerifyConfig) -> tuple:
    """The specs and worker count of a run; each of its ConfigErrors comes here."""
    cfg.validate()
    specs = _case_specs(cfg)
    if not specs:
        raise ConfigError("the filters select no case")
    workers = _worker_budget()
    # The homes of the cases are imported here, once, so pool workers fork with them.
    for home in sorted({_HOMES[spec[0]] for spec in specs}):
        import_module(f".{home}", __package__)
    return specs, workers


def _cases(specs: list, workers: int):
    """Yield the record of each spec in spec order, from the pool as its
    results arrive or from this process; if the pool fails, the cases not
    yet yielded run in this process."""
    done = 0
    if workers > 1 and len(specs) > 1:
        # The pool starts all of its workers at once; never more than cases.
        workers = min(workers, len(specs))
        try:
            with _process_pool(workers) as pool:
                chunk = max(1, len(specs) // (workers * 4))
                for case in pool.map(_run_case, specs, chunksize=chunk):
                    yield case
                    done += 1
        except Exception as e:
            print(
                f"warning: process pool failed ({type(e).__name__}: {e}); running cases serially",
                file=sys.stderr,
            )
    for spec in specs[done:]:
        yield _run_case(spec)


def _json(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) for str, int, bool, None, list and dict
    with str keys, where `indent` is a newline and the leading spaces of
    obj's own line; strings go through json's C quoting.  Any other type
    raises TypeError."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, list):
        items = [_json(value, inner) for value in obj]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("JSON object keys must be str")
        items = [f"{_quote(key)}: {_json(value, inner)}" for key, value in obj.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_report(sink, fmt: str, report: Report) -> str:
    """Write `report` to `sink` case by case, as `report.cases` yields them,
    and return their status, written last.  The JSON is json.dumps(report,
    indent=2) and a newline: each case is encoded alone, its lines
    indented by four more spaces."""
    counts = {"pass": 0, "fail": 0, "skip": 0}
    if fmt == "json":
        head = _json({"tool": report.tool, "version": report.version, "config": report.config})
        sink.write(head[:-2] + ',\n  "cases": [')
    else:
        cfg = report.config
        sink.write(f"{report.tool} {report.version}  suite={cfg.get('suite')} max_dim="
                   f"{cfg.get('max_dim')} max_n={cfg.get('max_n')} seed={cfg.get('seed')}\n")
    sep = "\n    "
    for case in report.cases:
        counts[case["status"]] = counts.get(case["status"], 0) + 1
        if fmt == "json":
            sink.write(sep + _json(case, "\n    "))
            sep = ",\n    "
        else:
            fail = f"  {json.dumps(case['details'])}" if case["status"] == "fail" else ""
            sink.write(f"{case['status']:>4}  {case['name']}{fail}\n")
    status = "fail" if counts["fail"] else "pass"
    if fmt == "json":
        close = "]" if sep == "\n    " else "\n  ]"
        sink.write(f'{close},\n  "status": {_json(status)}\n}}\n')
    else:
        sink.write(
            f"{counts['pass']} passed, {counts['fail']} failed, {counts['skip']} skipped\n"
            f"status: {status}\n"
        )
    return status


def run_verify(cfg: VerifyConfig) -> Report:
    """The report of `cfg`, its cases collected in a list."""
    cases = list(_cases(*_plan(cfg)))
    status = "fail" if any(c["status"] == "fail" for c in cases) else "pass"
    return Report("hodgefock", __version__, cfg._asdict(), cases, status)


def render_report(report: Report, fmt: str = "json") -> str:
    """What `main` writes for `report`, without the last newline."""
    if fmt not in ("json", "text"):
        raise ConfigError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    _write_report(buf, fmt, report)
    return buf.getvalue()[:-1]


def parse_report(text: str) -> Report:
    return Report(**json.loads(text))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hodgefock",
        description="Exact verification of Hodge calculus on finite Fock truncations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run an invariant suite over a parameter grid")
    verify.set_defaults(**VerifyConfig()._asdict())
    verify.add_argument("suite", choices=SUITES + ("all",))
    verify.add_argument("--max-dim", type=int)
    verify.add_argument("--max-n", type=int)
    verify.add_argument("--dim", type=int)
    verify.add_argument("--n", type=int)
    verify.add_argument("--k", type=int)
    verify.add_argument("--q", type=int)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--format", choices=("json", "text"))
    verify.add_argument("--out")
    args = parser.parse_args(argv)
    cfg = VerifyConfig(**{name: getattr(args, name) for name in VerifyConfig._fields})
    try:
        specs, workers = _plan(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # The report's cases are an iterator; its status is the writer's.
    report = Report("hodgefock", __version__, cfg._asdict(), _cases(specs, workers))
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            status = _write_report(fh, cfg.format, report)
    else:
        status = _write_report(sys.stdout, cfg.format, report)
    return 0 if status == "pass" else 1
