"""Degree-n commutation identity, exact sequences and the two-term split.

On H_{k,q} with n = k + q >= 1 write L = lower, R = raise_, A = L R and
B = R L; off the end of the complex both operators are the zero map into
an empty block.  Each block has one homotopy certificate (_certificate):
L L = 0 and R R = 0 through the block, and A + B = n I.  Then
A A = n A - R L L R = n A, and likewise B B = n B, A B = B A = 0, L A = 0
and R B = 0: A / n and B / n are complementary idempotents and R / n is a
contracting homotopy.  So the split of t is (A t / n, B t / n),
L x = R x = 0 gives n x = 0, Ker L = Im A and Ker R = Im B, and the ranks
are traces: rank lower = tr(B) / n and rank raise_ = tr(A) / n.

The identities are the Koszul model's (fock_ops._koszul), checked once
per (len(mu), q) with formal weights; a block adds a dictionary entry per
operator (_dictionary: it gives the model's columns).  The certificate
keeps each check's first failing label, the traces and the defect.

H_{k,q} over R^d is a sum of relabelled pattern blocks (tensor_core), so
ranks and kernels are count-weighted sums over the patterns, a defect is
the largest over them, and an identity holds iff it holds on each.  A
pattern block with no label (q > len(mu)) adds nothing to any of these,
so the cases build no record of one (tensor_core._has_labels).  The
weitzenboeck, exactness and split cases of `hodgefock verify` are here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul
from typing import NamedTuple

from .errors import DegreeOutOfRange
from .fock_ops import _adjoint_residual, _koszul, _model_images, lower, raise_
from .linalg import lincomb
# embed is not called here; benchmarks/test_bench.py checks that the
# tracer's wrapper of embed reaches this binding too.
from .tensor_core import FockTensor, block_dim, embed, enum_basis, weight_patterns  # noqa: F401
from .tensor_core import _has_labels


def weitzenboeck_defect(d: int, k: int, q: int) -> Fraction:
    """Largest |entry| of raise_ . lower + lower . raise_ - (k+q) * id.

    Exact, over the pattern blocks' certificates; the identity holds iff
    this is 0.  A block with q > d, and k = q = 0, give 0.  Negative k or
    q raises DegreeOutOfRange, and d < 1 DimensionMismatch (weight_patterns).
    """
    if k < 0 or q < 0:
        raise DegreeOutOfRange(f"the defect needs k, q >= 0, got ({k},{q})")
    patterns = weight_patterns(d, k + q)
    return max((_certificate(mu, k, q)[2] for mu, _ in patterns if k + q and _has_labels(mu, q)),
               default=Fraction(0))


@lru_cache(maxsize=None)
def _dictionary(which: str, mu: tuple, k: int, q: int):
    """The first label of the block of mu where lower (which = "lower") or
    raise_ does not give the model's column, or None; the certificates of
    the block and of its neighbours, and the chaos case, read it."""
    op, shift = (lower, -1) if which == "lower" else (raise_, 1)
    cod = enum_basis(mu, k + shift, q - shift)
    return next((b for b, col in zip(enum_basis(mu, k, q), _model_images(which, mu, q))
                 if op(FockTensor._trusted((mu, k, q), {b: 1})).coeffs
                 != {cod[r]: v for r, v in col.items()}), None)


@lru_cache(maxsize=None)
def _certificate(ground, k: int, q: int) -> tuple:
    """(checks, ranks, defect) of a pattern block, k + q >= 1: the first
    failing label or None of the dictionaries of L and R there, of L from
    H_{k+1,q-1} and R from H_{k-1,q+1}, and of the model's A + B = n I,
    L L = 0 and R R = 0; (tr(B) / n, tr(A) / n) = (rank lower, rank raise_)
    if all hold; the largest |entry| of A + B - n I, read off lower and
    raise_ themselves where a dictionary fails."""
    n = k + q
    _, _, identities, traces, residual = _koszul(len(ground), q)
    checks = (
        # A neighbour with no label holds: its entry is neither built nor cached.
        *((name, _dictionary(w, ground, k, q) or (
            _dictionary(w, ground, k + i, q - i) if _has_labels(ground, q - i) else None))
          for name, w, i in (("lower = Σ mu_i ε_i", "lower", 1), ("raise_ = Σ ι_i", "raise", -1))),
        *((name, c if c is None else enum_basis(ground, k + i, q - i)[c])
          for name, i, c in identities),
    )
    holds = all(label is None for _, label in checks)
    ranks = tuple(sum(map(mul, trace, ground)) // n for trace in traces) if holds else None
    entries = (lincomb((v * ground[i], {r: 1}) for (r, i), v in col.items()) for col in residual)
    if checks[0][1] or checks[1][1]:
        images = (FockTensor._trusted((ground, k, q), {b: 1}) for b in enum_basis(ground, k, q))
        entries = ((lower(raise_(e)) + raise_(lower(e)) - e.scale(n)).coeffs for e in images)
    return checks, ranks, Fraction(max((abs(v) for e in entries for v in e.values()), default=0))


def _hook_ranks(r: int, q: int) -> tuple[int, int]:
    """(rank lower, rank raise_) on a pattern block with r parts and q wedge
    slots, the hook Kostka numbers: (C(r-1, q), C(r-1, q-1)), 0 at q = 0."""
    return comb(r - 1, q), comb(r - 1, q - 1) if q else 0


def operator_rank(which: str, ground, k: int, q: int) -> int | None:
    """Rank of lower (which = "lower") or raise_ on the block of a pattern
    ground, k, q >= 0 and k + q >= 1, as a trace of the block's
    certificate; None if that fails.  A block with no label has rank 0,
    and its certificate is not built."""
    if not _has_labels(ground, q):
        return 0
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
    blocks = (_certificate(mu, k, n - k)[0]
              for mu, _ in patterns for k in range(n + 1) if _has_labels(mu, n - k))
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
        return {r.k: r for r in self.rows}[k]

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


@lru_cache(maxsize=None)
def exactness_report(d: int, n: int) -> ExactnessReport:
    """Exact ranks, kernels and harmonic dimensions for total degree n >= 1,
    read from the pattern blocks' certificates (module docstring): ranks are
    traces, kernels dim - rank, and no block has a harmonic part.  Cached
    per (d, n): the exactness and decomposition cases read its rows."""
    if n < 1:
        raise DegreeOutOfRange("the report needs total degree n >= 1")
    patterns = weight_patterns(d, n)
    rows = []
    for k in range(n, -1, -1):
        q, dim = n - k, block_dim(d, k, n - k)
        low, up = (sum(c * operator_rank(w, mu, k, q) for mu, c in patterns)
                   for w in ("lower", "raise"))
        rows.append(ExactnessRow(k, q, dim, low, dim - low, up, dim - up, 0))
    return ExactnessReport(d, n, tuple(rows))


def random_tensor(d: int, k: int, q: int, rng) -> FockTensor:
    """Pseudo-random element, coefficients rng.randint(-9, 9) from a
    random.Random rng.  No verify case draws one; property tests do, and
    the benchmark's tracer names it as a layer."""
    return FockTensor(d, k, q, {label: rng.randint(-9, 9) for label in enum_basis(d, k, q)})


def _case_weitzenboeck(d: int, n: int, k: int):
    q = n - k
    defect = weitzenboeck_defect(d, k, q)
    details = {"dim": block_dim(d, k, q), "defect": str(defect)}
    return ("pass" if defect == 0 else "fail"), details


def _case_exactness(d: int, n: int, k: int):
    q = n - k
    failure = _complex_failure(d, n)
    if failure:
        return "fail", {"dim": block_dim(d, k, q), **failure}
    rep = exactness_report(d, n)
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
    """(identity, first failing label or None) for the split's own claims on
    one block, which _case_split reads after the block's certificate (it
    proves every identity of A and B): adjointness, and hodge_split on
    t = sum_i (i+1) e_i against A t and B t, read off the model's columns."""
    n, labels = k + q, enum_basis(ground, k, q)
    index, bad = {b: i for i, b in enumerate(labels)}, set()
    split = hodge_split(FockTensor._trusted((ground, k, q), {b: i + 1 for b, i in index.items()}))
    for got, first, second, shift in zip(split, ("raise", "lower"), ("lower", "raise"), (-1, 1)):
        middle = lincomb((i + 1, col) for i, col in enumerate(_model_images(first, ground, q)))
        outer = _model_images(second, ground, q + shift)
        want = lincomb((c, outer[m]) for m, c in middle.items())
        bad.update(lincomb(((n, {index[b]: c for b, c in got.coeffs.items()}), (-1, want))))
    return (
        # Adjointness gives inner(plus, raise_(y)) = inner(lower(plus), y) = 0.
        ("adjoint", _adjoint_residual(ground, k, q)),
        ("hodge_split", labels[min(bad)] if bad else None),
    )


def _case_split(d: int, n: int, k: int):
    """The split on every pattern block.  A failure names the first identity
    that fails and its first failing label in the first block where it does."""
    q = n - k
    failure = _first_failure(_certificate(mu, k, q)[0] + _split_failures(mu, k, q)
                             for mu, _ in weight_patterns(d, n) if _has_labels(mu, q))
    return ("fail" if failure else "pass"), {"dim": block_dim(d, k, q), **failure}
