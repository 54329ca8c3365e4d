"""Degree-n commutation identity, exact sequences and the two-term split.

On H_{k,q} with n = k + q >= 1 write L = lower, R = raise_, A = L R and
B = R L; off the end of the complex both operators are the zero map into
an empty block.  Each block has one homotopy certificate (_certificate):
the integer identities L L = 0 and R R = 0 through the block, and
A + B = n I.  Then A A = n A - R L L R = n A, and likewise B B = n B,
A B = B A = 0, L A = 0 and R B = 0: A / n and B / n are complementary
idempotents and R / n is a contracting homotopy.  So the split of t is
(A t / n, B t / n), L x = R x = 0 gives n x = 0, Ker L = Im A = Im L from
H_{k+1,q-1} and Ker R = Im B = Im R from H_{k-1,q+1}, and the ranks are
traces: rank lower = tr(B) / n and rank raise_ = tr(A) / n.  The
certificate is the block's one cached record: it builds A, B and the
products from operator_matrix, keeps each identity's first failing label,
the traces and the largest |entry| of A + B - n I (weitzenboeck_defect),
and drops the matrices.

H_{k,q} over R^d is a sum of relabelled pattern blocks (tensor_core), so
ranks and kernels are count-weighted sums over the patterns, a defect is
the largest over them, and an identity holds iff it holds on each.  The
weitzenboeck, exactness and split cases of `hodgefock verify` are here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import DegreeOutOfRange
from .fock_ops import LinearMap, _adjoint_residual, _first_label, lower, operator_matrix, raise_
# embed is not called here; benchmarks/test_bench.py checks that the
# tracer's wrapper of embed reaches this binding too.
from .tensor_core import FockTensor, block_dim, embed, enum_basis, weight_patterns  # noqa: F401


def weitzenboeck_defect(d: int, k: int, q: int) -> Fraction:
    """Largest |entry| of raise_ . lower + lower . raise_ - (k+q) * id.

    Exact, over the pattern blocks' certificates; the identity holds iff
    this is 0.  A block with q > d, and k = q = 0, give 0.  Negative k or
    q raises DegreeOutOfRange, and d < 1 DimensionMismatch (weight_patterns).
    """
    if k < 0 or q < 0:
        raise DegreeOutOfRange(f"the defect needs k, q >= 0, got ({k},{q})")
    patterns = weight_patterns(d, k + q)
    return max((_certificate(mu, k, q)[2] for mu, _ in patterns if k + q), default=Fraction(0))


@lru_cache(maxsize=None)
def _certificate(ground, k: int, q: int) -> tuple:
    """(checks, ranks, defect) of one block, k + q >= 1: each identity with
    its first failing label or None (A + B = n I, L L from H_{k+1,q-1}, R R
    from H_{k-1,q+1}), (tr(B) / n, tr(A) / n) = (rank lower, rank raise_),
    None if one fails, and the largest |entry| of A + B - n I.  Once per
    argument tuple and process: every Fock-side case reads it, and the
    products are built here only."""
    n = k + q
    a = operator_matrix("lower", ground, k + 1, q - 1) @ operator_matrix("raise", ground, k, q)
    b = operator_matrix("raise", ground, k - 1, q + 1) @ operator_matrix("lower", ground, k, q)
    residual = a + b - LinearMap.identity((ground, k, q)).scale(n)
    checks = [("plus + minus = t", _first_label(residual))]
    for name, which, i in (("lower lower = 0", "lower", 1), ("raise_ raise_ = 0", "raise", -1)):
        twice = operator_matrix(which, ground, k, q) @ operator_matrix(which, ground, k + i, q - i)
        checks.append((name, _first_label(twice)))
    ranks = None
    if all(label is None for _, label in checks):
        trace_a, trace_b = (sum(v for (r, c), v in m.coeffs.items() if r == c) for m in (a, b))
        ranks = (trace_b // n, trace_a // n)
    return tuple(checks), ranks, residual.max_abs_entry()


def _hook_ranks(r: int, q: int) -> tuple[int, int]:
    """(rank lower, rank raise_) on a pattern block with r parts and q wedge
    slots, the hook Kostka numbers: (C(r-1, q), C(r-1, q-1)), 0 at q = 0."""
    return comb(r - 1, q), comb(r - 1, q - 1) if q else 0


def operator_rank(which: str, ground, k: int, q: int) -> int | None:
    """Rank of operator_matrix(which, ground, k, q), k, q >= 0 and k + q >= 1,
    as a trace of the block's certificate; None if that fails."""
    ranks = _certificate(ground, k, q)[1]
    return None if ranks is None else ranks[which == "raise"]


def _first_failure(blocks) -> dict:
    """failed and label of the first identity that fails, in check order, at
    its first failing label in the first block where it fails, or {}."""
    for step in zip(*blocks):
        for name, label in step:
            if label is not None:
                return {"failed": name, "label": label.render()}
    return {}


def _complex_failure(d: int, n: int) -> dict:
    """_first_failure over the certificates of the degree-n complex over R^d."""
    patterns = weight_patterns(d, n)
    blocks = (_certificate(mu, k, n - k)[0] for mu, _ in patterns for k in range(n + 1))
    return _first_failure(blocks)


def hodge_split(t: FockTensor) -> tuple[FockTensor, FockTensor]:
    """Split t = plus + minus with lower(plus) = 0 and raise_(minus) = 0.

    plus  = lower(raise_(t)) / n   (zero when q = 0),
    minus = raise_(lower(t)) / n   (zero when k = 0),
    n = k + q >= 1; n = 0 has no split and raises DegreeOutOfRange.
    """
    n = t.k + t.q
    if n < 1:
        raise DegreeOutOfRange("the split needs total degree k + q >= 1")
    return lower(raise_(t)) / n, raise_(lower(t)) / n


class ExactnessRow(NamedTuple):
    """Exact rank data of one block H_{k,q} inside the degree-n complex."""

    k: int
    q: int
    dim: int
    rank_lower: int
    ker_lower: int
    rank_raise: int
    ker_raise: int
    harmonic_dim: int

    def rank_nullity_ok(self) -> bool:
        return self.rank_lower + self.ker_lower == self.dim == self.rank_raise + self.ker_raise


class ExactnessReport(NamedTuple):
    """Rank bookkeeping for both degree-n sequences over R^d.

    Rows run k = n down to 0.  The lower maps form
    sym^n -> H_{n-1,1} -> ... -> wedge^n -> 0 and the raise_ maps run the
    other way; at the ends the missing operator counts as the zero map.
    """

    d: int
    n: int
    rows: tuple[ExactnessRow, ...]

    def row(self, k: int) -> ExactnessRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise KeyError(k)

    def exact_at(self, k: int) -> tuple[bool, bool]:
        """(lower, raise_) exactness at H_{k,n-k}: each kernel there equals
        the image of the same operator from the neighbouring block, with
        the missing operator at either end counting as the zero map."""
        r = self.row(k)
        lower_ok = r.ker_lower == (self.row(k + 1).rank_lower if k < self.n else 0)
        raise_ok = r.ker_raise == (self.row(k - 1).rank_raise if k > 0 else 0)
        return lower_ok, raise_ok

    def is_exact(self) -> bool:
        """Both sequences exact at every block, and no harmonic part."""
        return all(all(self.exact_at(r.k)) and r.harmonic_dim == 0 for r in self.rows)


def exactness_report(d: int, n: int) -> ExactnessReport:
    """Exact ranks, kernels and harmonic dimensions for total degree n >= 1.

    Read from the pattern blocks' certificates (module docstring): ranks
    are traces, kernels are dim - rank and no block has a harmonic part.
    Every block of the complex must hold its certificate (_complex_failure).
    """
    if n < 1:
        raise DegreeOutOfRange("the report needs total degree n >= 1")
    patterns = weight_patterns(d, n)
    rows = []
    for k in range(n, -1, -1):
        q, dim = n - k, block_dim(d, k, n - k)
        low, up = (
            sum(count * operator_rank(which, mu, k, q) for mu, count in patterns)
            for which in ("lower", "raise")
        )
        rows.append(ExactnessRow(k, q, dim, low, dim - low, up, dim - up, 0))
    return ExactnessReport(d, n, tuple(rows))


def random_tensor(d: int, k: int, q: int, rng) -> FockTensor:
    """Pseudo-random element, coefficients rng.randint(-9, 9), for a
    random.Random rng: deterministic given its seed.

    No verify case draws one; it serves property tests, and the
    benchmark's tracer names it as a layer.
    """
    coeffs = {}
    for label in enum_basis(d, k, q):
        c = rng.randint(-9, 9)
        if c:
            coeffs[label] = c
    return FockTensor(d, k, q, coeffs)


def _case_weitzenboeck(d: int, n: int, k: int):
    q = n - k
    defect = weitzenboeck_defect(d, k, q)
    details = {"dim": block_dim(d, k, q), "defect": str(defect)}
    return ("pass" if defect == 0 else "fail"), details


@lru_cache(maxsize=None)
def _exactness_report(d: int, n: int):
    """One report per (d, n) and process; each of its n + 1 cases reads a row."""
    return exactness_report(d, n)


def _case_exactness(d: int, n: int, k: int):
    q = n - k
    failure = _complex_failure(d, n)
    if failure:
        return "fail", {"dim": block_dim(d, k, q), **failure}
    rep = _exactness_report(d, n)
    row = rep.row(k)
    lower_ok, raise_ok = rep.exact_at(k)
    # dim, rank_lower, ker_lower, rank_raise, ker_raise and harmonic_dim, in order
    details = dict(zip(row._fields[2:], row[2:]), lower_exact=lower_ok, raise_exact=raise_ok)
    # The traces against the closed form: the hook Kostka numbers of each pattern.
    for mu, _ in weight_patterns(d, n):
        expected = list(_hook_ranks(len(mu), q))
        if [operator_rank(w, mu, k, q) for w in ("lower", "raise")] != expected:
            details.update(pattern=list(mu), expected=expected)
            return "fail", details
    return ("pass" if lower_ok and raise_ok else "fail"), details


@lru_cache(maxsize=None)
def _split_failures(ground, k: int, q: int) -> tuple:
    """(identity, first failing label or None) for each split claim on one
    block: its certificate, which proves every identity of A and B, then
    adjointness and hodge_split on t = sum_i (i+1) e_i against A t and B t.
    Cached likewise."""
    n = k + q
    labels = enum_basis(ground, k, q)
    t = FockTensor._trusted((ground, k, q), {label: i + 1 for i, label in enumerate(labels)})
    plus, minus = hodge_split(t)
    # A t = L (R t) and B t = R (L t), through the operator matrices.
    lower_t, raise_t = (operator_matrix(w, ground, k, q).apply(t) for w in ("lower", "raise"))
    a_t = operator_matrix("lower", ground, k + 1, q - 1).apply(raise_t)
    b_t = operator_matrix("raise", ground, k - 1, q + 1).apply(lower_t)
    residuals = (plus - a_t / n, minus - b_t / n)
    bad = min((key for res in residuals for key in res.coeffs), key=labels.index, default=None)
    return _certificate(ground, k, q)[0] + (
        # Adjointness gives inner(plus, raise_(y)) = inner(lower(plus), y) = 0.
        ("adjoint", _adjoint_residual(ground, k, q)),
        ("hodge_split", bad),
    )


def _case_split(d: int, n: int, k: int):
    """The split on every pattern block.  A failure names the first identity
    that fails and its first failing label in the first block where it does."""
    q = n - k
    failure = _first_failure(_split_failures(mu, k, q) for mu, _ in weight_patterns(d, n))
    return ("fail" if failure else "pass"), {"dim": block_dim(d, k, q), **failure}
