"""Degree-n commutation identity, exact sequences and the two-term split.

On H_{k,q} with n = k + q >= 1 write A = lower . raise_ and
B = raise_ . lower.  Off the end of the complex both operators are the
zero map into an empty block, so A = 0 when q = 0 and B = 0 when k = 0.
Then A + B = n times the identity, and dividing by n yields two
complementary idempotents: the image of A is killed by lower, the image
of B is killed by raise_, and the two pieces are orthogonal.
split_matrices gives A and B as exact integer matrices, so on a block
the split claims are integer identities with no division:
A + B = n I, lower A = 0, raise_ B = 0, A A = n A, B A = 0, A B = 0 and
B B = n B.

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
from .fock_ops import LinearMap, _adjoint_residual, lower, operator_matrix, operator_rank, raise_
from .linalg import kernel_basis, matrix_rank
# embed is not called here; benchmarks/test_bench.py checks that the
# tracer's wrapper of embed reaches this binding too.
from .tensor_core import FockTensor, block_dim, embed, enum_basis, weight_patterns  # noqa: F401


@lru_cache(maxsize=None)
def split_matrices(ground, k: int, q: int) -> tuple[LinearMap, LinearMap]:
    """A = lower . raise_ and B = raise_ . lower on a block, as integer matrices.

    Column b of each is the image of the label b; A = 0 when q = 0 and
    B = 0 when k = 0.  The split of t is (A t / n, B t / n).  Built once
    per argument tuple and process.  Negative k or q raises
    DegreeOutOfRange.
    """
    if k < 0 or q < 0:
        raise DegreeOutOfRange(f"the split matrices need k, q >= 0, got ({k},{q})")
    a = operator_matrix("lower", ground, k + 1, q - 1) @ operator_matrix("raise", ground, k, q)
    b = operator_matrix("raise", ground, k - 1, q + 1) @ operator_matrix("lower", ground, k, q)
    return a, b


def weitzenboeck_defect(d: int, k: int, q: int) -> Fraction:
    """Largest |entry| of raise_ . lower + lower . raise_ - (k+q) * id.

    Exact, over the pattern blocks; the identity holds iff this is 0.  A
    block with q > d gives 0.  Negative k or q raises DegreeOutOfRange.
    """
    if k < 0 or q < 0:
        raise DegreeOutOfRange(f"the defect needs k, q >= 0, got ({k},{q})")
    residuals = (_sum_residual(mu, k, q) for mu, _ in weight_patterns(d, k + q))
    return max((r.max_abs_entry() for r in residuals), default=Fraction(0))


@lru_cache(maxsize=None)
def _sum_residual(ground, k: int, q: int) -> LinearMap:
    """A + B - n I on one block, from split_matrices.

    Computed once per argument tuple and process: the weitzenboeck, split
    and chaos cases of a block all read it.
    """
    a, b = split_matrices(ground, k, q)
    return a + b - LinearMap.identity((ground, k, q)).scale(k + q)


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

    The harmonic dimension of a block is the kernel of the stacked matrix
    (lower on top of raise_), i.e. dim(Ker lower intersect Ker raise_).
    lower at k = 0 and raise_ at q = 0 are zero-row matrices, so the same
    code serves the ends of the sequence.  Ranks and kernels come from
    separate eliminations, so rank_nullity_ok cross-checks the two.
    """
    if n < 1:
        raise DegreeOutOfRange("the report needs total degree n >= 1")
    rows = []
    for k in range(n, -1, -1):
        blocks = [(count, _block_row(mu, k, n - k)) for mu, count in weight_patterns(d, n)]
        sums = (sum(count * row[i] for count, row in blocks) for i in range(2, 8))
        rows.append(ExactnessRow(k, n - k, *sums))
    return ExactnessReport(d, n, tuple(rows))


@lru_cache(maxsize=None)
def _block_row(ground, k: int, q: int) -> ExactnessRow:
    """The row of one pattern block, once per argument tuple and process:
    the reports of every d >= len(ground) read it."""
    ops = ("lower", "raise")
    maps = [operator_matrix(which, ground, k, q) for which in ops]
    rank_lower, rank_raise = (operator_rank(which, ground, k, q) for which in ops)
    ker_lower, ker_raise = (len(kernel_basis(m.columns())) for m in maps)
    dim = block_dim(ground, k, q)
    harmonic = dim - matrix_rank([row for m in maps for row in m.transpose().columns()])
    return ExactnessRow(k, q, dim, rank_lower, ker_lower, rank_raise, ker_raise, harmonic)


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
