"""Structural operators on mixed tensor blocks.

lower moves one symmetric slot to the wedge side, raise_ moves one wedge
slot back, both with the alternating signs that make the two families of
maps square to zero and satisfy the degree-n commutation identity

    raise_ . lower + lower . raise_ = (k + q) * id   on H_{k,q}.

Also here: the slot action of the symmetric group on full tensors, the
averaging (anti)symmetrizers over a chosen position set, and exact
integer matrices of the operators in the canonical bases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _itpermutations
from math import factorial
from typing import Iterable, Iterator

from .errors import DimensionMismatch, InvalidIndex
from .linalg import SparseVector, as_coeff, lincomb, matrix_rank
from .tensor_core import (
    FockTensor,
    FullTensor,
    MixedIndex,
    _gram_factor,
    _signed_arrangements,
    block_dim,
    enum_basis,
    perm_sign,
)


class Permutation:
    """Permutation of slots 1..n, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InvalidIndex(f"not a permutation of 1..{n}: {images!r}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidIndex(f"transposition ({i} {j}) out of range 1..{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise DimensionMismatch("permutation degrees differ")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def sign(self) -> int:
        return perm_sign(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All n! slot permutations, in lexicographic image order."""
    for images in _itpermutations(range(1, n + 1)):
        yield Permutation(images)


def permute(t: FullTensor, p: Permutation) -> FullTensor:
    """Relocate slots: the factor in slot i moves to slot p(i)."""
    if p.degree != t.n:
        raise DimensionMismatch(f"permutation degree {p.degree} != tensor degree {t.n}")
    inv = p.inverse().images
    out = {tuple(key[inv[j] - 1] for j in range(t.n)): c for key, c in t.coeffs.items()}
    return FullTensor._trusted((t.dim, t.n), out)


def _check_positions(t: FullTensor, positions: Iterable[int]) -> tuple[int, ...]:
    pos = tuple(sorted(positions))
    if len(set(pos)) != len(pos) or any(not 1 <= p <= t.n for p in pos):
        raise InvalidIndex(f"positions {pos!r} invalid for degree {t.n}")
    return pos


def _average(t: FullTensor, positions: Iterable[int], signed: bool) -> FullTensor:
    """(Signed) average of the slot permutations moving only `positions`."""
    pos = _check_positions(t, positions)
    m = len(pos)
    if m <= 1:
        return t
    inv_m = Fraction(1, factorial(m))
    out: dict[tuple[int, ...], object] = {}
    for key, c in t.coeffs.items():
        c = c * inv_m
        sub = [key[p - 1] for p in pos]
        for sign, sigma in _signed_arrangements(m):
            new = list(key)
            for p, s in zip(pos, sigma):
                new[p - 1] = sub[s]
            new = tuple(new)
            out[new] = out.get(new, 0) + (sign * c if signed else c)
    return FullTensor._trusted((t.dim, t.n), out)


def sym_subset(t: FullTensor, positions: Iterable[int]) -> FullTensor:
    """Average of the slot permutations fixing everything off `positions`."""
    return _average(t, positions, signed=False)


def alt_subset(t: FullTensor, positions: Iterable[int]) -> FullTensor:
    """Signed average of the slot permutations moving only `positions`."""
    return _average(t, positions, signed=True)


def _wedge_insert(i: int, alt: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and sorted tuple for e_i ^ e_alt, or None when i repeats."""
    if i in alt:
        return None
    below = sum(1 for j in alt if j < i)
    return (-1) ** below, alt[:below] + (i,) + alt[below:]


def lower(t: FockTensor) -> FockTensor:
    """Move one symmetric slot into the wedge part, summed over slots.

    On a label: sum over the k symmetric entries h of
    (label minus h) tensor (h wedged in front).  For k = 0 the result is
    the distinguished zero of the degenerate block (k-1, q+1), and a
    degenerate zero input passes through as the shifted zero, so chained
    applications stay total across the end of the complex.
    """
    out: dict[MixedIndex, object] = {}
    for label, c in t.coeffs.items():
        for s in range(t.k):
            ins = _wedge_insert(label.sym[s], label.alt)
            if ins is None:
                continue
            sign, alt = ins
            new = MixedIndex(label.sym[:s] + label.sym[s + 1 :], alt)
            out[new] = out.get(new, 0) + sign * c
    return FockTensor._trusted((t.dim, t.k - 1, t.q + 1), out)


def raise_(t: FockTensor) -> FockTensor:
    """Move one wedge slot into the symmetric part, with alternating signs.

    On a label with wedge entries j_1 < ... < j_q: sum of
    (-1)^(i-1) * (sym with j_i inserted) tensor (wedge minus j_i).  For
    q = 0 there is no wedge slot and the result is the zero of the
    degenerate block (k+1, -1), and a degenerate zero input passes
    through as the shifted zero: like lower, raise_ is the zero map off
    the end of the complex.
    """
    out: dict[MixedIndex, object] = {}
    for label, c in t.coeffs.items():
        for i, j in enumerate(label.alt):
            new = MixedIndex(
                tuple(sorted(label.sym + (j,))),
                label.alt[:i] + label.alt[i + 1 :],
            )
            out[new] = out.get(new, 0) + (-1) ** i * c
    return FockTensor._trusted((t.dim, t.k + 1, t.q - 1), out)


class LinearMap(SparseVector):
    """Exact sparse matrix of a map between two mixed blocks.

    Keys are (row, col).  Rows index the codomain basis and columns the
    domain basis, both enum_basis of their signature, so the signatures
    fix the bases and block_dim gives the sizes.
    """

    __slots__ = ("dom_sig", "cod_sig")

    def __init__(self, dom_sig, cod_sig, entries):
        dom_sig, cod_sig = tuple(dom_sig), tuple(cod_sig)
        rows, cols = block_dim(*cod_sig), block_dim(*dom_sig)
        data: dict[tuple[int, int], object] = {}
        for (r, c), v in entries.items():
            if not 0 <= r < rows or not 0 <= c < cols:
                raise InvalidIndex(f"entry ({r},{c}) outside matrix shape ({rows}, {cols})")
            data[(r, c)] = as_coeff(v)
        self._set((dom_sig, cod_sig), data)

    @classmethod
    def identity(cls, sig) -> "LinearMap":
        return cls(sig, sig, {(i, i): 1 for i in range(block_dim(*sig))})

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """self composed after other."""
        if other.cod_sig != self.dom_sig:
            raise DimensionMismatch("composition domains do not line up")
        cols = self.columns()
        out: dict[tuple[int, int], object] = {}
        for c, col in enumerate(other.columns()):
            for r, v in lincomb((w, cols[mid]) for mid, w in col.items()).items():
                out[(r, c)] = v
        return LinearMap._trusted((other.dom_sig, self.cod_sig), out)

    def transpose(self) -> "LinearMap":
        ent = {(c, r): v for (r, c), v in self.coeffs.items()}
        return LinearMap._trusted((self.cod_sig, self.dom_sig), ent)

    def apply(self, t: FockTensor) -> FockTensor:
        if t.signature != self.dom_sig:
            raise DimensionMismatch(f"tensor {t.signature} != domain {self.dom_sig}")
        cols = self.columns()
        index = {label: i for i, label in enumerate(enum_basis(*self.dom_sig))}
        cod = enum_basis(*self.cod_sig)
        image = lincomb((c, cols[index[label]]) for label, c in t.coeffs.items())
        return FockTensor._trusted(self.cod_sig, {cod[r]: v for r, v in image.items()})

    def max_abs_entry(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return Fraction(max(abs(v) for v in self.coeffs.values()))

    def columns(self) -> list[dict]:
        cols: list[dict] = [{} for _ in range(block_dim(*self.dom_sig))]
        for (r, c), v in self.coeffs.items():
            cols[c][r] = v
        return cols

    def rank(self) -> int:
        return matrix_rank(self.columns())


@lru_cache(maxsize=None)
def operator_matrix(which: str, d: int, k: int, q: int) -> LinearMap:
    """Matrix of lower or raise_ on H_{k,q} in the canonical bases.

    Entries are integers under the package conventions.  lower at k = 0
    and raise_ at q = 0 give zero-row matrices: the codomain is a
    degenerate block.  Built once per argument tuple and process: the
    suites ask for the same matrices, and a LinearMap is never mutated.
    """
    if which == "lower":
        op = lower
        cod_sig = (d, k - 1, q + 1)
    elif which == "raise":
        op = raise_
        cod_sig = (d, k + 1, q - 1)
    else:
        raise InvalidIndex(f"unknown operator {which!r}")
    index = {label: i for i, label in enumerate(enum_basis(*cod_sig))}
    entries: dict[tuple[int, int], object] = {}
    for c, label in enumerate(enum_basis(d, k, q)):
        image = op(FockTensor._trusted((d, k, q), {label: 1}))
        for lab, v in image.coeffs.items():
            entries[(index[lab], c)] = v
    return LinearMap._trusted(((d, k, q), cod_sig), entries)


def gram_matrix(d: int, k: int, q: int) -> LinearMap:
    """Diagonal pairing matrix of H_{k,q}: multiplicity factorials."""
    ent = {(i, i): _gram_factor(label) for i, label in enumerate(enum_basis(d, k, q))}
    return LinearMap._trusted(((d, k, q), (d, k, q)), ent)
