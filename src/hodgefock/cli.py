"""Batch verification driver.

`hodgefock verify <suite>` sweeps the identity checks over a parameter
grid d in 1..max_dim, n in 1..max_n and all k, one case per block, and
emits a report.  Reports are deterministic given the config: no
timestamps, no timings, rationals rendered as exact "p/q" strings, cases
sorted by (suite, d, n, k, name).  Cases run on a process pool whose
size is taken from HODGEFOCK_WORKERS when set; results come back in case
order either way, so the output does not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from math import comb, factorial, prod

from . import __version__
from .chaos import (
    FormField,
    HermiteExpansion,
    _he_coeffs,
    _hermite_image,
    _hermite_monomial,
    chaos_field,
    codifferential,
    commutation_defect,
    exp_vector,
    exterior_derivative,
    gaussian_inner,
    hermite_key,
    hermite_matrix,
    hodge_laplacian,
)
from .errors import ConfigError
# lower and raise_ are unused here; they stay bound because the
# benchmark's tracer tests check that its wrappers reach cli.lower.
from .fock_ops import LinearMap, alt_subset, gram_matrix, lower, operator_matrix, raise_
from .fock_ops import sym_subset, symmetric_group
from .hodge import exactness_report, hodge_split, split_matrices
from .hodge import weitzenboeck_defect, witnesses
from .linalg import lincomb
from .rep_theory import action_trace, decomposition_dims, orbit_span, orbit_split_spaces
from .tensor_core import FockTensor, MixedIndex, _gram_factor, block_dim, enum_basis, inner

SUITES = ("weitzenboeck", "exactness", "split", "decomposition", "rep", "chaos")


def _writable(path: str) -> bool:
    """Whether open(path, "w") can succeed, judged without creating the file."""
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    return os.access(os.path.dirname(path) or ".", os.W_OK)


@dataclass(frozen=True)
class VerifyConfig:
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
        if (
            self.n is not None
            and self.k is not None
            and self.q is not None
            and self.k + self.q != self.n
        ):
            raise ConfigError(f"inconsistent filters: k + q = {self.k + self.q} != n = {self.n}")
        if self.out is not None and not _writable(self.out):
            raise ConfigError(f"cannot write the report to {self.out!r}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    tool: str
    version: str
    config: dict
    cases: list = field(default_factory=list)
    status: str = "pass"

    def as_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(**data)


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join([str(seed), *map(str, tags)]))


def _case_weitzenboeck(d: int, n: int, k: int, seed: int):
    q = n - k
    defect = weitzenboeck_defect(d, k, q)
    details = {"dim": block_dim(d, k, q), "defect": str(defect)}
    return ("pass" if defect == 0 else "fail"), details


@lru_cache(maxsize=None)
def _exactness_report(d: int, n: int):
    """One report per (d, n) and process; each of its n + 1 cases reads a row."""
    return exactness_report(d, n)


def _case_exactness(d: int, n: int, k: int, seed: int):
    rep = _exactness_report(d, n)
    row = rep.row(k)
    lower_ok, raise_ok = rep.exact_at(k)
    details = {
        "dim": row.dim,
        "rank_lower": row.rank_lower,
        "ker_lower": row.ker_lower,
        "rank_raise": row.rank_raise,
        "ker_raise": row.ker_raise,
        "harmonic_dim": row.harmonic_dim,
        "lower_exact": lower_ok,
        "raise_exact": raise_ok,
    }
    ok = lower_ok and raise_ok and row.rank_nullity_ok() and row.harmonic_dim == 0
    return ("pass" if ok else "fail"), details


def _fock_adjoint_residual(d: int, k: int, q: int) -> LinearMap:
    """G' L - (G R')^T, with L = lower on H_{k,q}, R' = raise_ on
    H_{k-1,q+1} and G, G' their gram matrices: zero iff
    inner(lower(u), w) = inner(u, raise_(w)) for all u and w."""
    return gram_matrix(d, k - 1, q + 1) @ operator_matrix("lower", d, k, q) - (
        gram_matrix(d, k, q) @ operator_matrix("raise", d, k - 1, q + 1)
    ).transpose()


def _split_residuals(d: int, k: int, q: int, labels: list):
    """(identity, residuals) pairs of the split on H_{k,q}, lazily.

    With A, B = split_matrices(d, k, q) and n = k + q, each split claim
    is an integer identity of whole-block matrices, which holds iff its
    residuals are zero.  hodge_split itself is checked once, on
    t = sum_i (i+1) e_i, against (A t / n, B t / n).
    """
    n = k + q
    a, b = split_matrices(d, k, q)
    yield "plus + minus = t", [a + b - LinearMap.identity((d, k, q)).scale(n)]
    yield "lower(plus) = 0", [operator_matrix("lower", d, k, q) @ a]
    yield "raise_(minus) = 0", [operator_matrix("raise", d, k, q) @ b]
    yield "split(plus) = (plus, 0)", [a @ a - a.scale(n), b @ a]
    yield "split(minus) = (0, minus)", [a @ b, b @ b - b.scale(n)]
    # Adjointness gives inner(plus, raise_(y)) = inner(lower(plus), y) = 0.
    yield "adjoint", [_fock_adjoint_residual(d, k, q)]
    if labels:
        t = FockTensor(d, k, q, {label: i + 1 for i, label in enumerate(labels)})
        plus, minus = hodge_split(t)
        yield "hodge_split", [plus - a.apply(t) / n, minus - b.apply(t) / n]


def _case_split(d: int, n: int, k: int, seed: int):
    q = n - k
    labels = enum_basis(d, k, q)
    details = {"dim": len(labels)}
    index = {label: i for i, label in enumerate(labels)}
    for name, residuals in _split_residuals(d, k, q, labels):
        # Matrix residuals are keyed (row, column), tensor residuals by label.
        bad = [
            key[1] if isinstance(res, LinearMap) else index[key]
            for res in residuals
            for key in res.coeffs
        ]
        if bad:
            details.update(failed=name, label=labels[min(bad)].render())
            return "fail", details
    return "pass", details


def _case_decomposition(d: int, n: int, k: int, seed: int):
    q = n - k
    dim, dim_plus, dim_minus, direct = decomposition_dims(d, k, q)
    block = block_dim(d, k, q)
    ker_lower = block - operator_matrix("lower", d, k, q).rank()
    details = {
        "dim": dim,
        "dim_plus": dim_plus,
        "dim_minus": dim_minus,
        "ker_lower": ker_lower,
    }
    # With direct, the embedded dimension ties dim_minus to rank(lower).
    ok = direct and dim == block and dim_plus == ker_lower
    return ("pass" if ok else "fail"), details


def _distinct_label(n: int, k: int) -> MixedIndex:
    return MixedIndex(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)))


def _repeated_label(d: int, n: int, k: int) -> MixedIndex | None:
    q = n - k
    if k >= 2 or (k == 1 and q >= 1):
        return MixedIndex((1,) * k, tuple(range(1, q + 1)))
    return None


def _case_rep(d: int, n: int, k: int, seed: int):
    q = n - k
    if n > d:
        return "skip", {"reason": "no distinct-index label", "dim": d, "n": n}
    b = _distinct_label(n, k)
    orbit = orbit_span(b, d)
    plus, minus = orbit_split_spaces(b, orbit)
    dim_plus = comb(n - 1, q - 1) if q >= 1 else 0
    details = {
        "label": b.render(),
        "orbit_dim": orbit.dim,
        "split_dims": [plus.dim, minus.dim],
        "expected": [comb(n, k), dim_plus, comb(n - 1, q)],
    }
    ok = orbit.dim == comb(n, k) and (plus.dim, minus.dim) == (
        dim_plus,
        comb(n - 1, q),
    )
    if k >= 1 and q >= 1:
        vplus, vminus = witnesses(b, d)
        wit_ok = (
            not vplus.is_zero()
            and not vminus.is_zero()
            and orbit.contains(vplus)
            and orbit.contains(vminus)
            and sym_subset(vplus, range(1, k + 2)) == vplus
            and alt_subset(vplus, range(k + 2, n + 1)) == vplus
            and alt_subset(vminus, range(k, n + 1)) == vminus
            and sym_subset(vminus, range(1, k)) == vminus
        )
        details["witnesses"] = "ok" if wit_ok else "bad"
        ok = ok and wit_ok
    if n <= 4:
        char_ok = all(
            action_trace(orbit, p) == action_trace(plus, p) + action_trace(minus, p)
            for p in symmetric_group(n)
        )
        details["character_additive"] = char_ok
        ok = ok and char_ok
    rep_label = _repeated_label(d, n, k)
    if rep_label is not None:
        details["degenerate"] = {
            "label": rep_label.render(),
            "orbit_dim": orbit_span(rep_label, d).dim,
            "note": "degenerate-orbit",
        }
    return ("pass" if ok else "fail"), details


@lru_cache(maxsize=None)
def _hermite_table_holds(n: int) -> bool:
    """E[He_a He_b] = a! delta_ab for a, b <= n, one variable.

    Computed from the monomial coefficients of He and the Gaussian
    moments E[x^m] = (m-1)!! (zero for odd m), never through from_poly.
    """

    def moment(m: int) -> int:
        return 0 if m % 2 else prod(range(m - 1, 0, -2))

    return all(
        sum(c * w * moment(e + f) for e, c in _he_coeffs(a) for f, w in _he_coeffs(b))
        == (factorial(a) if a == b else 0)
        for a in range(n + 1)
        for b in range(n + 1)
    )


@lru_cache(maxsize=None)
def _ladder_tables_hold(n: int) -> tuple[bool, bool, bool]:
    """(d, δ, Laplacian) ladders of the monomial-basis operators, on every
    form He_a(x_1) He_b(x_2) dx_J over R^2, a + b <= n and J a subset of {1, 2}.

    exterior_derivative must give He_a' = a He_{a-1} and codifferential
    x He_a - He_a' = He_{a+1}, both with the wedge-slot signs of
    _hermite_image, and hodge_laplacian the eigenvalue a + b + |J|.  He
    is multiplied out from _he_coeffs (_hermite_monomial), never read
    through from_poly.
    """

    def form(q: int, terms) -> FormField:
        return FormField._trusted(
            (2, q),
            lincomb(
                (c, {(key, e): w for e, w in _hermite_monomial(m).items()})
                for c, (key, m) in terms
            ),
        )

    d_ok = delta_ok = lap_ok = True
    for a in range(n + 1):
        for b in range(n + 1 - a):
            for key in ((), (1,), (2,), (1, 2)):
                q = len(key)
                f = form(q, [(1, (key, (a, b)))])
                d_ok = d_ok and exterior_derivative(f) == form(
                    q + 1, _hermite_image("lower", key, (a, b))
                )
                delta_ok = delta_ok and codifferential(f) == form(
                    q - 1, _hermite_image("raise", key, (a, b))
                )
                lap_ok = lap_ok and hodge_laplacian(f) == f.scale(a + b + q)
    return d_ok, delta_ok, lap_ok


@lru_cache(maxsize=None)
def _hermite_matches(which: str, d: int, k: int, q: int) -> bool:
    """The shift matrix of d or δ equals the matrix of lower or raise_."""
    return hermite_matrix(which, d, k, q) == operator_matrix(which, d, k, q)


@lru_cache(maxsize=None)
def _chaos_block_holds(d: int, k: int, q: int) -> tuple[bool, bool]:
    """(dictionary, isometry) of the Gaussian model on H_{k,q}, from one field.

    With t = sum_i (i+1) e_{b_i} over the labels and f = chaos_field(t),
    the dictionary holds when the Hermite coordinates of f are exactly
    {hermite_key(b_i): i+1}: chaos_field acts label by label, and the
    distinct coefficients make a re-keyed or rescaled label show.

    The isometry then holds when each Fock weight _gram_factor(b) is
    prod mult(b)! and _hermite_table_holds(k) gives that Gaussian norm:
    both pairings are bilinear and vanish on distinct keys, so they agree
    on the whole block.  gaussian_inner itself is run once, on f.  An
    empty block builds no field.
    """
    labels = enum_basis(d, k, q)
    if not labels:
        return True, True
    t = FockTensor._trusted((d, k, q), {b: i + 1 for i, b in enumerate(labels)})
    f = chaos_field(t)
    coords = {
        (key, mult): c
        for key, p in f.items()
        for mult, c in HermiteExpansion.from_poly(p).coeffs.items()
    }
    dictionary = coords == {hermite_key(b, d): c for b, c in t.coeffs.items()}
    isometry = (
        dictionary
        and _hermite_table_holds(k)
        and all(_gram_factor(b) == prod(map(factorial, hermite_key(b, d)[1])) for b in labels)
        and gaussian_inner(f, f) == inner(t, t)
    )
    return dictionary, isometry


def _case_chaos(d: int, n: int, k: int, seed: int):
    """The Gaussian model of H_{k,q}, proved on whole blocks; seed is unused.

    Premise: exterior_derivative and codifferential act one coordinate at
    a time, with the shared wedge sign rule.  The ladder tables then make
    them the integer shift matrices of hermite_matrix in Hermite
    coordinates, and under the dictionary each key is a matrix identity:

    * diagram: d = lower on H_{k,q};
    * dual_diagram: δ = raise_ on H_{k,q};
    * the eigenvalue: δ d + d δ = B + A = n I (weitzenboeck_defect), with
      d and δ matched on the neighbouring blocks too;
    * adjoint: the diagram, δ = raise_ on H_{k-1,q+1}, the isometry on
      H_{k,q} and H_{k-1,q+1}, and the Fock adjointness G' L = (G R')^T.
    """
    q = n - k
    here, iso = _chaos_block_holds(d, k, q)
    below, iso_below = _chaos_block_holds(d, k - 1, q + 1)
    above = _chaos_block_holds(d, k + 1, q - 1)[0]
    ladder_d, ladder_delta, ladder_lap = _ladder_tables_hold(n)
    diagram = here and below and ladder_d and _hermite_matches("lower", d, k, q)
    dual = here and above and ladder_delta and _hermite_matches("raise", d, k, q)
    eigen = (
        ladder_lap
        and _hermite_matches("lower", d, k + 1, q - 1)
        and _hermite_matches("raise", d, k - 1, q + 1)
        and weitzenboeck_defect(d, k, q) == 0
    )
    dim = block_dim(d, k, q)
    details = {
        "dim": dim,
        "diagram": diagram,
        "dual_diagram": dual,
        "laplacian_eigenvalue": str(n) if dim else "0",
    }
    ok = diagram and dual and eigen
    if q == 0:
        details["isometry"] = iso
        ok = ok and iso
    if q + 1 <= d:
        adj = (
            diagram
            and iso
            and iso_below
            and ladder_delta
            and _hermite_matches("raise", d, k - 1, q + 1)
            and _fock_adjoint_residual(d, k, q).is_zero()
        )
        details["adjoint"] = adj
        ok = ok and adj
    return ("pass" if ok else "fail"), details


def _case_chaos_truncation(d: int, n: int, k: int, seed: int):
    rng = _rng(seed, "trunc", d, n)
    h = [rng.randint(-3, 3) for _ in range(d)]
    x = (1,)
    defect = commutation_defect(h, x, n)
    top = exp_vector(h, n).part(n)
    expected = FormField.zero(d, 2)
    for i in range(2, d + 1):
        if not h[i - 1]:
            continue
        key = (1, i)
        coeffs = {MixedIndex(lab.sym, key): c for lab, c in top.coeffs.items()}
        expected = expected - chaos_field(FockTensor(d, n, 2, coeffs)).scale(-h[i - 1])
    degrees = defect.hermite_degrees()
    details = {
        "h": [str(c) for c in h],
        "order": n,
        "defect_degrees": sorted(degrees),
    }
    ok = defect == expected and degrees <= {n}
    return ("pass" if ok else "fail"), details


_CASES = {
    "weitzenboeck": _case_weitzenboeck,
    "exactness": _case_exactness,
    "split": _case_split,
    "decomposition": _case_decomposition,
    "rep": _case_rep,
    "chaos": _case_chaos,
    "chaos-truncation": _case_chaos_truncation,
}


def _run_case(spec):
    label, name, d, n, k, seed = spec
    try:
        status, details = _CASES[label](d, n, k, seed)
    except Exception as e:
        status, details = "fail", {"error": f"{type(e).__name__}: {e}"}
    return {
        "name": name,
        "params": {"d": d, "n": n, "k": k},
        "status": status,
        "details": details,
    }


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
                    specs.append((suite, name, d, n, k, cfg.seed))
                if suite == "chaos":
                    if cfg.k is not None and cfg.k != n:
                        continue
                    if cfg.q is not None and cfg.q != 0:
                        continue
                    name = f"chaos-truncation d={d} n={n}"
                    specs.append(("chaos-truncation", name, d, n, n, cfg.seed))
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
    return min(os.cpu_count() or 1, 8)


def run_verify(cfg: VerifyConfig) -> Report:
    cfg.validate()
    specs = _case_specs(cfg)
    if not specs:
        raise ConfigError("the filters select no case")
    workers = _worker_budget()
    cases = None
    if workers > 1 and len(specs) > 1:
        # The pool starts all of its workers at once; never more than cases.
        workers = min(workers, len(specs))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk = max(1, len(specs) // (workers * 4))
                cases = list(pool.map(_run_case, specs, chunksize=chunk))
        except Exception as e:
            print(
                f"warning: process pool failed ({type(e).__name__}: {e}); running cases serially",
                file=sys.stderr,
            )
            cases = None
    if cases is None:
        cases = [_run_case(s) for s in specs]
    status = "fail" if any(c["status"] == "fail" for c in cases) else "pass"
    return Report(
        tool="hodgefock",
        version=__version__,
        config=cfg.as_dict(),
        cases=cases,
        status=status,
    )


def render_report(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report.as_dict(), indent=2)
    if fmt != "text":
        raise ConfigError(f"unknown format {fmt!r}")
    cfg = report.config
    lines = [
        f"{report.tool} {report.version}  suite={cfg.get('suite')}"
        f" max_dim={cfg.get('max_dim')} max_n={cfg.get('max_n')}"
        f" seed={cfg.get('seed')}"
    ]
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for case in report.cases:
        counts[case["status"]] = counts.get(case["status"], 0) + 1
        line = f"{case['status']:>4}  {case['name']}"
        if case["status"] == "fail":
            line += f"  {json.dumps(case['details'])}"
        lines.append(line)
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['skip']} skipped"
    )
    lines.append(f"status: {report.status}")
    return "\n".join(lines)


def parse_report(text: str) -> Report:
    return Report.from_dict(json.loads(text))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hodgefock",
        description="Exact verification of Hodge calculus on finite Fock truncations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run an invariant suite over a parameter grid")
    verify.set_defaults(**asdict(VerifyConfig()))
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
    cfg = VerifyConfig(**{f.name: getattr(args, f.name) for f in fields(VerifyConfig)})
    try:
        report = run_verify(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = render_report(report, cfg.format)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.status == "pass" else 1
