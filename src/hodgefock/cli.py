"""Batch verification driver.

`hodgefock verify <suite>` sweeps the identity checks over a parameter
grid d in 1..max_dim, n in 1..max_n and all k, one case per block, and
emits a report.  Reports are deterministic given the config: no
timestamps, no timings, rationals rendered as exact "p/q" strings, cases
sorted by (suite, d, n, k, name).  Cases run on a process pool whose
size is taken from HODGEFOCK_WORKERS when set; results come back in case
order either way, so the output does not depend on the worker count.
With HODGEFOCK_WORKERS=1 the cases run in this process, and the pool's
modules (multiprocessing and its dependencies) are never imported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache
from math import comb, factorial, prod
from typing import NamedTuple

from . import __version__
from .chaos import (
    FormField,
    _he_coeffs,
    _hermite_image,
    chaos_field,
    codifferential,
    commutation_defect,
    exterior_derivative,
    gaussian_inner,
    hermite_key,
    hermite_matrix,
    hodge_laplacian,
)
from .errors import ConfigError
# lower and raise_ are unused here; they stay bound because the
# benchmark's tracer tests check that its wrappers reach cli.lower.
from .fock_ops import LinearMap, Permutation, gram_matrix, lower, operator_matrix, operator_rank
from .fock_ops import permute, raise_
from .hodge import _sum_residual, exactness_report, hodge_split, split_matrices
from .hodge import weitzenboeck_defect, witnesses
from .rep_theory import _pattern_block, action_trace, class_representatives, decomposition_dims
from .rep_theory import _distinct_label, orbit_span, orbit_split_spaces
from .tensor_core import FockTensor, FullTensor, MixedIndex, _gram_factor, block_dim, enum_basis
from .tensor_core import inner, weight_patterns

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
        return self._asdict()


class Report(NamedTuple):
    tool: str
    version: str
    config: dict
    cases: list
    status: str = "pass"

    def as_dict(self) -> dict:
        return self._asdict()


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
    q = n - k
    rep = _exactness_report(d, n)
    row = rep.row(k)
    lower_ok, raise_ok = rep.exact_at(k)
    # dim, rank_lower, ker_lower, rank_raise, ker_raise and harmonic_dim, in order
    details = dict(zip(row._fields[2:], row[2:]), lower_exact=lower_ok, raise_exact=raise_ok)
    ok = lower_ok and raise_ok and row.rank_nullity_ok() and row.harmonic_dim == 0
    # Independent of the eliminations: the hook Kostka numbers of each pattern.
    for mu, _ in weight_patterns(d, n):
        expected = [comb(len(mu) - 1, q), comb(len(mu) - 1, q - 1) if q else 0]
        if [operator_rank(w, mu, k, q) for w in ("lower", "raise")] != expected:
            details.update(pattern=list(mu), expected=expected)
            return "fail", details
    return ("pass" if ok else "fail"), details


@lru_cache(maxsize=None)
def _adjoint_residual(ground, k: int, q: int) -> LinearMap:
    """G' L - (G R')^T, with L = lower on H_{k,q}, R' = raise_ on
    H_{k-1,q+1} and G, G' their gram matrices: zero iff
    inner(lower(u), w) = inner(u, raise_(w)) for all u and w.

    Computed once per argument tuple and process: the split and chaos
    cases of a block both ask for it.
    """
    return gram_matrix(ground, k - 1, q + 1) @ operator_matrix("lower", ground, k, q) - (
        gram_matrix(ground, k, q) @ operator_matrix("raise", ground, k - 1, q + 1)
    ).transpose()


@lru_cache(maxsize=None)
def _split_failures(ground, k: int, q: int) -> tuple:
    """(identity, first failing label or None) for each split claim on one
    block: integer identities of A, B = split_matrices(ground, k, q), and
    hodge_split on t = sum_i (i+1) e_i.  Cached as _adjoint_residual is."""
    n = k + q
    labels = enum_basis(ground, k, q)
    a, b = split_matrices(ground, k, q)
    t = FockTensor._trusted((ground, k, q), {label: i + 1 for i, label in enumerate(labels)})
    plus, minus = hodge_split(t)
    checks = {
        "plus + minus = t": [_sum_residual(ground, k, q)],
        "lower(plus) = 0": [operator_matrix("lower", ground, k, q) @ a],
        "raise_(minus) = 0": [operator_matrix("raise", ground, k, q) @ b],
        "split(plus) = (plus, 0)": [a @ a - a.scale(n), b @ a],
        "split(minus) = (0, minus)": [a @ b, b @ b - b.scale(n)],
        # Adjointness gives inner(plus, raise_(y)) = inner(lower(plus), y) = 0.
        "adjoint": [_adjoint_residual(ground, k, q)],
        "hodge_split": [plus - a.apply(t) / n, minus - b.apply(t) / n],
    }
    index = {label: i for i, label in enumerate(labels)}
    out = []
    for name, residuals in checks.items():
        # Matrix residuals are keyed (row, column), tensor residuals by label.
        bad = [
            key[1] if isinstance(res, LinearMap) else index[key]
            for res in residuals
            for key in res.coeffs
        ]
        out.append((name, labels[min(bad)] if bad else None))
    return tuple(out)


def _case_split(d: int, n: int, k: int, seed: int):
    """The split on every pattern block.  A failure names the first identity
    that fails and its first failing label in the first block where it does."""
    q = n - k
    blocks = [_split_failures(mu, k, q) for mu, _ in weight_patterns(d, n)]
    details = {"dim": block_dim(d, k, q)}
    for step in zip(*blocks):
        for name, label in step:
            if label is not None:
                details.update(failed=name, label=label.render())
                return "fail", details
    return "pass", details


def _case_decomposition(d: int, n: int, k: int, seed: int):
    q = n - k
    dim, dim_plus, dim_minus, direct = decomposition_dims(d, k, q)
    block = block_dim(d, k, q)
    patterns = weight_patterns(d, n)
    ranks = (c * operator_rank("lower", mu, k, q) for mu, c in patterns)
    ker_lower = block - sum(ranks)
    details = {"dim": dim, "dim_plus": dim_plus, "dim_minus": dim_minus, "ker_lower": ker_lower}
    # With direct, the embedded dimension ties dim_minus to rank(lower).
    ok = direct and dim == block and dim_plus == ker_lower
    # Independent of the certificate: the hook Kostka numbers, r = len(mu).
    for mu, _ in patterns:
        r = len(mu)
        expected = [comb(r, q), comb(r - 1, q - 1) if q else 0, comb(r - 1, q)]
        if list(_pattern_block(mu, k, q)[:3]) != expected:
            details.update(pattern=list(mu), expected=expected)
            return "fail", details
    return ("pass" if ok else "fail"), details


def _repeated_label(d: int, n: int, k: int) -> MixedIndex | None:
    q = n - k
    if k >= 2 or (k == 1 and q >= 1):
        return MixedIndex((1,) * k, tuple(range(1, q + 1)))
    return None


def _degenerate_orbit_dim(b: MixedIndex, d: int) -> int:
    """dim orbit_span(b) predicted from (plus, minus) = hodge_split(e_b):
    C(n-1, q-1) [plus != 0] + C(n-1, q) [minus != 0], the first term 0 at
    q = 0."""
    n, q = len(b.sym) + len(b.alt), len(b.alt)
    plus, minus = hodge_split(FockTensor.basis(d, b))
    dim_plus = comb(n - 1, q - 1) if q >= 1 and not plus.is_zero() else 0
    return dim_plus + (comb(n - 1, q) if not minus.is_zero() else 0)


def _slot_symmetric(v: FullTensor, lo: int, hi: int, sign: int) -> bool:
    """Whether each (i i+1), lo <= i < hi, maps v to sign * v: these generate
    the permutations of slots lo..hi, so v is symmetric (sign 1) or
    alternating (sign -1) there.  True on an empty or one-slot range."""
    target = v if sign == 1 else -v
    return all(
        permute(v, Permutation.transposition(v.n, i, i + 1)) == target for i in range(lo, hi)
    )


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
            and _slot_symmetric(vplus, 1, k + 1, 1)
            and _slot_symmetric(vplus, k + 2, n, -1)
            and _slot_symmetric(vminus, k, n, -1)
            and _slot_symmetric(vminus, 1, k - 1, 1)
        )
        details["witnesses"] = "ok" if wit_ok else "bad"
        ok = ok and wit_ok
    if n <= 4:
        # The class representatives include (1 2) and (1 2 ... n), which
        # generate S_n, so action_trace proves each space invariant and the
        # characters are class functions: one permutation per class covers S_n.
        char_ok = all(
            action_trace(orbit, p) == action_trace(plus, p) + action_trace(minus, p)
            for p in class_representatives(n)
        )
        details["character_additive"] = char_ok
        ok = ok and char_ok
    rep_label = _repeated_label(d, n, k)
    if rep_label is not None:
        orbit_dim = orbit_span(rep_label, d).dim
        expected = _degenerate_orbit_dim(rep_label, d)
        details["degenerate"] = {
            "label": rep_label.render(),
            "orbit_dim": orbit_dim,
            "note": "degenerate-orbit",
        }
        if orbit_dim != expected:
            details["degenerate"]["expected"] = expected
            ok = False
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
    _hermite_image, and hodge_laplacian the eigenvalue a + b + |J|.  Each
    form is multiplied out by FormField.from_hermite, never read through
    from_poly.
    """
    d_ok, delta_ok, lap_ok = _ladder_tables_hold(n - 1) if n else (True, True, True)
    for a in range(n + 1):
        for key in ((), (1,), (2,), (1, 2)):
            q = len(key)
            f = FormField.from_hermite(2, q, {(key, (a, n - a)): 1})
            d_ok = d_ok and exterior_derivative(f) == FormField.from_hermite(
                2, q + 1, dict(_hermite_image("lower", key, (a, n - a)))
            )
            delta_ok = delta_ok and codifferential(f) == FormField.from_hermite(
                2, q - 1, dict(_hermite_image("raise", key, (a, n - a)))
            )
            lap_ok = lap_ok and hodge_laplacian(f) == f.scale(n + q)
    return d_ok, delta_ok, lap_ok


@lru_cache(maxsize=None)
def _hermite_matches(which: str, mu: tuple, k: int, q: int) -> bool:
    """The shift matrix of d or δ equals lower or raise_ on the block of mu."""
    return hermite_matrix(which, mu, k, q) == operator_matrix(which, mu, k, q)


@lru_cache(maxsize=None)
def _chaos_pattern_holds(mu: tuple, k: int, q: int) -> tuple[bool, bool]:
    """(dictionary, isometry) of the Gaussian model on the block of mu, from one field.

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
    labels = enum_basis(mu, k, q)
    if not labels:
        return True, True
    t = FockTensor._trusted((mu, k, q), {b: i + 1 for i, b in enumerate(labels)})
    f = chaos_field(t)
    dictionary = f.hermite_coords() == {hermite_key(b, mu): c for b, c in t.coeffs.items()}
    isometry = (
        dictionary
        and _hermite_table_holds(k)
        and all(_gram_factor(b) == prod(map(factorial, hermite_key(b, mu)[1])) for b in labels)
        and gaussian_inner(f, f) == inner(t, t)
    )
    return dictionary, isometry


def _case_chaos(d: int, n: int, k: int, seed: int):
    """The Gaussian model of H_{k,q}, proved exactly; seed is unused.

    Premise: exterior_derivative and codifferential act one coordinate at
    a time, with the shared wedge sign rule.  The ladder tables then make
    them the integer shift matrices of hermite_matrix in Hermite
    coordinates, and under the dictionary each key is a matrix identity.
    Relabelling the ground commutes with all of it, so the dictionary,
    the isometry and each identity are and-ed over the pattern blocks:

    * diagram: d = lower on H_{k,q};
    * dual_diagram: δ = raise_ on H_{k,q};
    * the eigenvalue: δ d + d δ = B + A = n I (weitzenboeck_defect), with
      d and δ matched on the neighbouring blocks too;
    * adjoint: the diagram, δ = raise_ on H_{k-1,q+1}, the isometry on
      H_{k,q} and H_{k-1,q+1}, and the Fock adjointness G' L = (G R')^T.
    """
    q = n - k
    patterns = weight_patterns(d, n)

    def holds(k: int, q: int) -> tuple[bool, bool]:
        pairs = [_chaos_pattern_holds(mu, k, q) for mu, _ in patterns]
        return all(dictionary for dictionary, _ in pairs), all(iso for _, iso in pairs)

    def matches(which: str, k: int, q: int) -> bool:
        return all(_hermite_matches(which, mu, k, q) for mu, _ in patterns)

    here, iso = holds(k, q)
    below, iso_below = holds(k - 1, q + 1)
    above = holds(k + 1, q - 1)[0]
    ladder_d, ladder_delta, ladder_lap = _ladder_tables_hold(n)
    diagram = here and below and ladder_d and matches("lower", k, q)
    dual = here and above and ladder_delta and matches("raise", k, q)
    eigen = (
        ladder_lap
        and matches("lower", k + 1, q - 1)
        and matches("raise", k - 1, q + 1)
        and weitzenboeck_defect(d, k, q) == 0
    )
    dim = block_dim(d, k, q)
    details = {"dim": dim, "diagram": diagram, "dual_diagram": dual}
    details["laplacian_eigenvalue"] = str(n) if dim else "0"
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
            and matches("raise", k - 1, q + 1)
            and all(_adjoint_residual(mu, k, q).is_zero() for mu, _ in patterns)
        )
        details["adjoint"] = adj
        ok = ok and adj
    return ("pass" if ok else "fail"), details


def _case_chaos_truncation(d: int, n: int, k: int, seed: int):
    rng = _rng(seed, "trunc", d, n)
    h = [rng.randint(-3, 3) for _ in range(d)]
    defect = commutation_defect(h, (1,), n)
    # n! times the expected defect, in Hermite coordinates: the degree-n part
    # of exp(h), prod_i h_i^{a_i} / a_i! on He_a, tensored with h wedge e_1,
    # written out so that commutation_defect builds the only exponential vector.
    expected = {
        ((1, i), a): factorial(n) // prod(map(factorial, a)) * prod(map(pow, h, a)) * h[i - 1]
        for a in (hermite_key(b, d)[1] for b in enum_basis(d, n, 0))
        for i in range(2, d + 1)
    }
    ok = defect.scale(factorial(n)) == FormField.from_hermite(d, 2, expected)
    # Equal forms have equal Hermite coordinates, all of degree n here: a
    # passing case reads the degrees off the expected keys.
    degrees = {sum(a) for (_, a), c in expected.items() if c} if ok else defect.hermite_degrees()
    details = {"h": [str(c) for c in h], "order": n, "defect_degrees": sorted(degrees)}
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


def _process_pool(workers: int):
    """A pool of `workers` processes.  It is imported here, so that a serial
    run never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


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
            with _process_pool(workers) as pool:
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
    return Report(**json.loads(text))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hodgefock",
        description="Exact verification of Hodge calculus on finite Fock truncations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run an invariant suite over a parameter grid")
    verify.set_defaults(**VerifyConfig().as_dict())
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
