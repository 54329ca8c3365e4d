"""Mixed symmetric/antisymmetric tensor blocks with exact coefficients.

The ground space is R^d with distinguished basis e_1, ..., e_d.  A mixed
block H_{k,q} is spanned by vectors

    e_{i_1} (.) ... (.) e_{i_k}  tensor  e_{j_1} ^ ... ^ e_{j_q}

where (.) is the symmetric product and ^ the wedge.  Canonical labels keep
the symmetric entries sorted non-decreasing and the wedge entries sorted
strictly increasing; every tensor is a finite rational combination of
canonical labels.

Normalization conventions, fixed once and used everywhere:

 * the symmetric product of k vectors is the plain sum over all k!
   slot permutations of the tensor product (no 1/k! factor), and the
   wedge of q vectors is the signed sum over all q! permutations;
 * consequently embed() of a canonical label is that double sum, and
   rewriting each slot key of embed(b) as its canonical label gives
   k! * q! * b;
 * the pairing on H_{k,q} is the permanent pairing on the symmetric part
   times the determinant pairing on the wedge part, which makes
   inner(t, u) the slot-wise pairing of embed(t) and embed(u), divided
   by k! * q!.

With these choices every structural operator in the package has integer
matrix entries.

FockTensor and FullTensor are linalg.SparseVector subclasses: the sparse
format and its arithmetic live in linalg.  Their constructors are the
public edge and validate every label or key; embed and the operators in
fock_ops build their (already canonical) output through the unchecked
SparseVector._trusted instead.

A block's ground is d, or a multiplicity pattern mu: the weight block of
1^mu_1 2^mu_2 ..., with labels in 1..len(mu), valid over every R^d with
d >= len(mu).  The operators keep weights and commute with relabelling the
ground basis up to the wedge sort sign: H_{k,q} is a sum of pattern blocks.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, perm, prod
from typing import Iterable, Mapping, NamedTuple

from .errors import DegreeOutOfRange, DimensionMismatch, InvalidIndex
from .linalg import SparseVector, as_coeff, dot


def sort_sign(seq: tuple) -> tuple | None:
    """(sign, sorted tuple) of the permutation sorting seq, None on repeats."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            items[j], items[j - 1] = items[j - 1], items[j]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i] == items[i - 1]:
            return None
    return sign, tuple(items)


def perm_sign(seq: Iterable[int]) -> int:
    """Sign of a permutation given as a sequence of distinct values."""
    res = sort_sign(tuple(seq))
    if res is None:
        raise InvalidIndex(f"not a permutation: {seq!r}")
    return res[0]


class MixedIndex(NamedTuple):
    """Canonical basis label: sorted symmetric part, strictly sorted wedge part."""

    sym: tuple[int, ...]
    alt: tuple[int, ...]

    def render(self) -> str:
        return "({};{})".format(
            ",".join(map(str, self.sym)), ",".join(map(str, self.alt))
        )

    def is_canonical(self, dim: int) -> bool:
        ok_range = all(1 <= i <= dim for i in self.sym + self.alt)
        ok_sym = all(a <= b for a, b in zip(self.sym, self.sym[1:]))
        ok_alt = all(a < b for a, b in zip(self.alt, self.alt[1:]))
        return ok_range and ok_sym and ok_alt


def enum_basis(ground, k: int, q: int) -> list[MixedIndex] | tuple[MixedIndex, ...]:
    """Canonical labels of a block, sorted lexicographically.

    The ground is d or a pattern mu (module docstring): a new list over
    R^d, a cached tuple over a pattern.  Degenerate degrees (negative k or
    q, or q > d) give no label: honest zero blocks.
    """
    if isinstance(ground, tuple):
        return _weight_labels(ground, k, q)
    if ground < 1:
        raise DimensionMismatch(f"ground dimension must be >= 1, got {ground}")
    if k < 0 or q < 0 or q > ground:
        return []
    out = []
    for sym in combinations_with_replacement(range(1, ground + 1), k):
        for alt in combinations(range(1, ground + 1), q):
            out.append(MixedIndex(sym, alt))
    return out


def _partitions(n: int, max_parts: int, largest: int) -> list[tuple[int, ...]]:
    """Partitions of n into at most max_parts parts, each at most largest."""
    if n == 0:
        return [()]
    if max_parts == 0:
        return []
    return [
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in _partitions(n - first, max_parts - 1, first)
    ]


@lru_cache(maxsize=None)
def weight_patterns(d: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Multiplicity patterns of the degree-n weights over R^d, with counts.

    A weight is a multiset of n indices from 1..d; its pattern mu lists
    the multiplicities in decreasing order, a partition of n with at most
    d parts.  The count of weights sharing mu is
    d! / ((d - r)! * prod_v m_v!), with r = len(mu) and m_v the number of
    parts equal to v.  Cached per (d, n) and process.
    """
    if d < 1:
        raise DimensionMismatch(f"ground dimension must be >= 1, got {d}")
    return tuple(
        (mu, perm(d, len(mu)) // prod(map(factorial, Counter(mu).values())))
        for mu in _partitions(n, d, n)
    )


def _has_labels(mu: tuple[int, ...], q: int) -> bool:
    """Whether the block of the pattern mu with q wedge slots (and
    sum(mu) - q symmetric ones) has a label: 0 <= q <= len(mu).  Every
    identity holds on an empty block and adds 0 to each dimension, so the
    pattern loops of the verify cases read (and cache) no record of one."""
    return 0 <= q <= len(mu)


@lru_cache(maxsize=None)
def _weight_labels(mu: tuple[int, ...], k: int, q: int) -> tuple[MixedIndex, ...]:
    """Sorted labels of H_{k,q} of weight 1^mu_1 2^mu_2 ...; none unless
    k + q = sum(mu).  Cached per (mu, k, q) and process."""
    if k < 0 or q < 0 or k + q != sum(mu):
        return ()
    return tuple(sorted(
        MixedIndex(tuple(v for v, m in enumerate(mu, 1) for _ in range(m - (v in alt))), alt)
        for alt in combinations(range(1, len(mu) + 1), q)
    ))


def _gram_factor(label: MixedIndex) -> int:
    """Pairing of a canonical label with itself: product of sym multiplicity
    factorials (the permanent), times 1 from the determinant."""
    out = 1
    run = 1
    for a, b in zip(label.sym, label.sym[1:]):
        run = run + 1 if a == b else 1
        if run > 1:
            out *= run
    return out


class FockTensor(SparseVector):
    """Element of a mixed block H_{k,q}, sparse over canonical labels.

    A degenerate signature (k < 0, q < 0 or q > d) is allowed only for
    the zero tensor, so maps off the end of a complex have an honest zero
    target.
    """

    __slots__ = ("dim", "k", "q")

    def __init__(self, dim: int, k: int, q: int, coeffs: Mapping | None = None):
        if dim < 1:
            raise DimensionMismatch(f"ground dimension must be >= 1, got {dim}")
        data: dict[MixedIndex, object] = {}
        if coeffs:
            if k < 0 or q < 0 or q > dim:
                raise DegreeOutOfRange(
                    f"block ({k},{q}) over R^{dim} is zero-dimensional"
                )
            for label, c in coeffs.items():
                if not isinstance(label, MixedIndex):
                    label = MixedIndex(tuple(label[0]), tuple(label[1]))
                if len(label.sym) != k or len(label.alt) != q:
                    raise InvalidIndex(f"label {label!r} has wrong degrees")
                if not label.is_canonical(dim):
                    raise InvalidIndex(f"label {label!r} is not canonical")
                data[label] = data.get(label, 0) + as_coeff(c)
        self._set((dim, k, q), data)

    @classmethod
    def zero(cls, dim: int, k: int, q: int) -> "FockTensor":
        return cls(dim, k, q)

    @classmethod
    def basis(cls, dim: int, label: MixedIndex) -> "FockTensor":
        label = MixedIndex(tuple(label[0]), tuple(label[1]))
        return cls(dim, len(label.sym), len(label.alt), {label: 1})

    @property
    def signature(self) -> tuple[int, int, int]:
        return (self.dim, self.k, self.q)

    _render_key = staticmethod(MixedIndex.render)


class FullTensor(SparseVector):
    """Element of the full tensor power (R^d)^{tensor n}, sparse over slot keys."""

    __slots__ = ("dim", "n")

    def __init__(self, dim: int, n: int, coeffs: Mapping | None = None):
        if dim < 1:
            raise DimensionMismatch(f"ground dimension must be >= 1, got {dim}")
        if n < 0:
            raise DegreeOutOfRange(f"tensor degree must be >= 0, got {n}")
        data: dict[tuple[int, ...], object] = {}
        for key, c in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != n or not all(1 <= i <= dim for i in key):
                raise InvalidIndex(f"key {key!r} invalid for degree {n}, dim {dim}")
            data[key] = data.get(key, 0) + as_coeff(c)
        self._set((dim, n), data)

    @classmethod
    def zero(cls, dim: int, n: int) -> "FullTensor":
        return cls(dim, n)


@lru_cache(maxsize=None)
def _signed_arrangements(q: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign, sigma) for every permutation sigma of range(q), in lexicographic order."""
    return tuple((perm_sign([s + 1 for s in sigma]), sigma) for sigma in permutations(range(q)))


def embed(t: FockTensor) -> FullTensor:
    """Write a mixed tensor inside the full tensor power.

    A label goes to the sum over all k! arrangements of its symmetric
    entries times the signed sum over all q! arrangements of its wedge
    entries.  No normalizing factor; rewriting each slot key as its
    canonical label, with the sign that sorts its wedge entries, is a
    k!*q! left inverse.
    """
    if t.k < 0 or t.q < 0:
        raise DegreeOutOfRange(f"cannot embed degenerate signature {t.signature}")
    n = t.k + t.q
    out: dict[tuple[int, ...], object] = {}
    signed = _signed_arrangements(t.q)
    for label, c in t.coeffs.items():
        for rho in permutations(label.sym):
            for sign, sigma in signed:
                key = rho + tuple(label.alt[s] for s in sigma)
                out[key] = out.get(key, 0) + sign * c
    return FullTensor._trusted((t.dim, n), out)


def inner(t: FockTensor, u: FockTensor):
    """Permanent pairing on the symmetric part, determinant on the wedge part.

    On canonical labels both factors vanish unless the labels agree, and
    the permanent of the multiplicity-matching matrix is the product of
    multiplicity factorials.
    """
    t._check_same(u)
    return dot(t.coeffs, u.coeffs, _gram_factor)


def block_dim(ground, k: int, q: int) -> int:
    """Size of enum_basis(ground, k, q): C(d+k-1, k) * C(d, q) over R^d,
    C(len(mu), q) on the weight block of mu; zero for degenerate degrees."""
    if isinstance(ground, tuple):
        return comb(len(ground), q) if k >= 0 and q >= 0 and k + q == sum(ground) else 0
    if ground < 1:
        raise DimensionMismatch(f"ground dimension must be >= 1, got {ground}")
    if k < 0 or q < 0 or q > ground:
        return 0
    return comb(ground + k - 1, k) * comb(ground, q)
