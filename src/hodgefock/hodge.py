"""Degree-n commutation identity, exact sequences and the two-term split.

On H_{k,q} with n = k + q >= 1 write A = lower . raise_ and
B = raise_ . lower.  Off the end of the complex both operators are the
zero map into an empty block, so A = 0 when q = 0 and B = 0 when k = 0.
Then A + B = n times the identity, and dividing by n yields two
complementary idempotents: the image of A is killed by lower, the image
of B is killed by raise_, and the two pieces are orthogonal.
split_matrices gives A and B as exact integer matrices, so on a whole
block the split claims are integer identities with no division:
A + B = n I, lower A = 0, raise_ B = 0, A A = n A, B A = 0, A B = 0 and
B B = n B.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import DegreeOutOfRange
from .fock_ops import LinearMap, Permutation, lower, operator_matrix, permute, raise_
from .linalg import kernel_basis, matrix_rank
from .tensor_core import FockTensor, FullTensor, MixedIndex, block_dim, embed, enum_basis


def split_matrices(d: int, k: int, q: int) -> tuple[LinearMap, LinearMap]:
    """A = lower . raise_ and B = raise_ . lower on H_{k,q}, as integer matrices.

    Column b of each is the image of the basis label b.  Each composite
    runs through the empty block off the end of the complex when q = 0
    (for A) or k = 0 (for B), and so is the zero map there.  The split of
    t is (A t / n, B t / n).  Negative k or q raises DegreeOutOfRange.
    """
    if k < 0 or q < 0:
        raise DegreeOutOfRange(f"the split matrices need k, q >= 0, got ({k},{q})")
    a = operator_matrix("lower", d, k + 1, q - 1) @ operator_matrix("raise", d, k, q)
    b = operator_matrix("raise", d, k - 1, q + 1) @ operator_matrix("lower", d, k, q)
    return a, b


def weitzenboeck_defect(d: int, k: int, q: int) -> Fraction:
    """Largest |entry| of raise_ . lower + lower . raise_ - (k+q) * id.

    Computed on exact integer matrices; the identity holds iff this is 0.
    Boundary terms (k = 0 or q = 0) are zero maps, and a block with q > d
    gives 0.  Negative k or q raises DegreeOutOfRange.
    """
    a, b = split_matrices(d, k, q)
    return (a + b - LinearMap.identity((d, k, q)).scale(k + q)).max_abs_entry()


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


@dataclass(frozen=True)
class ExactnessRow:
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

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExactnessReport:
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

    def lower_exact(self) -> bool:
        """Ker(lower on H_{k,q}) = Im(lower from H_{k+1,q-1}) at every k."""
        return all(self.exact_at(r.k)[0] for r in self.rows)

    def raise_exact(self) -> bool:
        """Ker(raise_ on H_{k,q}) = Im(raise_ from H_{k-1,q+1}) at every k."""
        return all(self.exact_at(r.k)[1] for r in self.rows)

    def harmonic_trivial(self) -> bool:
        return all(r.harmonic_dim == 0 for r in self.rows)

    def rank_nullity_ok(self) -> bool:
        return all(r.rank_nullity_ok() for r in self.rows)

    def is_exact(self) -> bool:
        return self.lower_exact() and self.raise_exact() and self.harmonic_trivial()

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "rows": [r.as_dict() for r in self.rows],
            "lower_exact": self.lower_exact(),
            "raise_exact": self.raise_exact(),
            "harmonic_trivial": self.harmonic_trivial(),
        }


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
        q = n - k
        maps = [operator_matrix("lower", d, k, q), operator_matrix("raise", d, k, q)]
        (rank_lower, ker_lower), (rank_raise, ker_raise) = map(_rank_and_kernel, maps)
        dim = block_dim(d, k, q)
        harmonic = dim - matrix_rank([row for m in maps for row in m.transpose().columns()])
        rows.append(
            ExactnessRow(k, q, dim, rank_lower, ker_lower, rank_raise, ker_raise, harmonic)
        )
    return ExactnessReport(d, n, tuple(rows))


def _rank_and_kernel(m: LinearMap) -> tuple[int, int]:
    """Rank and kernel dimension, each from its own elimination."""
    return m.rank(), len(kernel_basis(m.columns()))


def witnesses(b: MixedIndex, d: int) -> tuple[FullTensor, FullTensor]:
    """Explicit members of the two neighbouring position-set families.

    For a label b with k, q >= 1 and w = embed(b), n = k + q:

      vplus  = (1/(k+1)) * sum_{l=1..k+1} (l <-> k+1) w
      vminus = (1/(q+1)) * (w - sum_{m=k+1..n} (k <-> m) w)

    vplus is symmetric in slots 1..k+1 and alternating in the rest;
    vminus is symmetric in slots 1..k-1 and alternating in slots k..n.
    """
    k, q = len(b.sym), len(b.alt)
    if k < 1 or q < 1:
        raise DegreeOutOfRange("witnesses need k >= 1 and q >= 1")
    n = k + q
    w = embed(FockTensor.basis(d, b))
    acc = FullTensor.zero(d, n)
    for l in range(1, k + 2):
        acc = acc + permute(w, Permutation.transposition(n, l, k + 1))
    vplus = acc / (k + 1)
    acc = w
    for m in range(k + 1, n + 1):
        acc = acc - permute(w, Permutation.transposition(n, k, m))
    vminus = acc / (q + 1)
    return vplus, vminus


def random_tensor(d: int, k: int, q: int, rng: random.Random) -> FockTensor:
    """Deterministic pseudo-random element: coefficients uniform in -9..9.

    No verify case draws one: every suite is proved on the whole block.
    It serves property tests and sampled cross-checks.
    """
    coeffs = {}
    for label in enum_basis(d, k, q):
        c = rng.randint(-9, 9)
        if c:
            coeffs[label] = c
    return FockTensor(d, k, q, coeffs)
