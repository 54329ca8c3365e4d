"""Symmetric-group structure of the mixed position-set subspaces.

Inside the full tensor power, each choice of k slot positions carries a
copy of "symmetric there, alternating elsewhere".  The span of one label
over all slot permutations decomposes into at most two irreducible
pieces, the two hook shapes (k+1, 1^{q-1}) and (k, 1^q); the split is cut
out by the sum of all slot transpositions, which acts on the two pieces
with eigenvalues differing by exactly n = k + q. That operator is the
matrix form of the two composites lower . raise_ and raise_ . lower read
through embed, so the subspace split here and the tensor split in the
hodge module are the same decomposition in two coordinate systems.

The decomposition check works one weight block at a time (tensor_core
docstring): embed and the slot permutations keep the weight of a key and
commute with relabelling the ground basis, so decomposition_dims solves
the block of each pattern mu once and multiplies by its count.
embedded_subspace and span_all_positions stay as the full-power oracle.

Characters are class functions: class_representatives gives one
permutation per cycle type of S_n, built from the partitions of n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import DimensionMismatch, InvalidIndex, NotInvariant
from .fock_ops import Permutation, permute
from .linalg import EchelonBasis, kernel_basis, lincomb
from .tensor_core import FockTensor, FullTensor, MixedIndex, _partitions, embed, enum_basis
from .tensor_core import weight_patterns


class Subspace:
    """Subspace of the full tensor power, held as a reduced echelon basis.

    The stored basis is canonical (fully reduced primitive integer rows
    with positive pivots, see EchelonBasis), so two Subspace objects are
    equal iff they are the same subspace of the same ambient power.
    basis() returns those rows and coordinates() reads t on them.
    """

    __slots__ = ("dim_ground", "degree", "_ech")

    def __init__(self, dim_ground: int, degree: int):
        self.dim_ground = dim_ground
        self.degree = degree
        self._ech = EchelonBasis()

    @classmethod
    def spanned_by(cls, dim_ground: int, degree: int, vectors) -> "Subspace":
        out = cls(dim_ground, degree)
        for v in vectors:
            out.add(v)
        return out

    def _check(self, t: FullTensor) -> None:
        if (t.dim, t.n) != (self.dim_ground, self.degree):
            raise DimensionMismatch(
                f"tensor in {(t.dim, t.n)}, subspace ambient {(self.dim_ground, self.degree)}"
            )

    def add(self, t: FullTensor) -> bool:
        self._check(t)
        return self._ech.insert(t.coeffs)

    @property
    def dim(self) -> int:
        return self._ech.dim

    def contains(self, t: FullTensor) -> bool:
        self._check(t)
        return self._ech.contains(t.coeffs)

    def basis(self) -> list[FullTensor]:
        """The canonical basis: coprime integer vectors in pivot order."""
        shape = (self.dim_ground, self.degree)
        return [FullTensor._trusted(shape, row) for row in self._ech.rows()]

    def coordinates(self, t: FullTensor) -> list:
        """Coefficients of t in the canonical basis; NotInvariant if outside."""
        self._check(t)
        coords = self._ech.coordinates(t.coeffs)
        if coords is None:
            raise NotInvariant("vector lies outside the subspace")
        return coords

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.dim_ground, self.degree) == (other.dim_ground, other.degree)
            and self._ech == other._ech
        )

    def __repr__(self):
        return f"Subspace(ambient=({self.dim_ground},{self.degree}), dim={self.dim})"


def position_permutation(n: int, k: int, positions: tuple[int, ...]) -> Permutation:
    """Slot relocation sending 1..k onto `positions` (order kept on both parts)."""
    rest = [p for p in range(1, n + 1) if p not in positions]
    images = [0] * n
    for s, p in enumerate(positions):
        images[s] = p
    for s, p in enumerate(rest):
        images[k + s] = p
    return Permutation(images)


def has_distinct_indices(b: MixedIndex) -> bool:
    entries = b.sym + b.alt
    return len(set(entries)) == len(entries)


def orbit_span(b: MixedIndex, d: int) -> Subspace:
    """Span of the slot-permutation orbit of embed(b).

    embed(b) is fixed (up to sign) by permutations preserving the two
    position groups, so representatives moving 1..k onto each k-subset of
    positions already span the orbit; the full n! sweep is used as a
    cross-check oracle in the tests.
    """
    k = len(b.sym)
    return _position_span(d, k + len(b.alt), k, [b])


def _embedded_span(d: int, n: int, labels) -> Subspace:
    out = Subspace(d, n)
    for b in labels:
        out.add(embed(FockTensor.basis(d, b)))
    return out


def _position_span(d: int, n: int, k: int, labels) -> Subspace:
    """Span of embed(b) for each label b, placed at every k-subset of positions."""
    out = Subspace(d, n)
    for b in labels:
        w = embed(FockTensor.basis(d, b))
        for positions in combinations(range(1, n + 1), k):
            out.add(permute(w, position_permutation(n, k, positions)))
    return out


def span_all_positions(d: int, k: int, q: int) -> Subspace:
    """Span of every mixed block placed at every k-subset of slot positions.

    Degenerate degrees give the zero subspace of the right ambient power.
    """
    return _position_span(d, k + q, k, enum_basis(d, k, q))


def embedded_subspace(d: int, k: int, q: int) -> Subspace:
    """embed-image of the canonical block H_{k,q} (positions 1..k fixed)."""
    return _embedded_span(d, k + q, enum_basis(d, k, q))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection, via the kernel of the stacked column system."""
    if (a.dim_ground, a.degree) != (b.dim_ground, b.degree):
        raise DimensionMismatch("subspaces live in different ambient powers")
    cols_a = a._ech.rows()
    cols_b = b._ech.rows()
    out = Subspace(a.dim_ground, a.degree)
    for tag in kernel_basis(cols_a + cols_b):
        out._ech.insert(lincomb((c, cols_a[j]) for j, c in tag.items() if j < len(cols_a)))
    return out


@lru_cache(maxsize=None)
def _pattern_block(mu: tuple[int, ...], k: int, q: int) -> tuple[int, int, int, bool]:
    """(dim, dim_plus, dim_minus, direct) of the weight block of mu, built
    over R^len(mu): it serves every d >= len(mu)."""
    r, n = len(mu), k + q
    space = _embedded_span(r, n, enum_basis(mu, k, q))
    plus = intersect(space, _position_span(r, n, k + 1, enum_basis(mu, k + 1, q - 1)))
    minus = intersect(space, _position_span(r, n, k - 1, enum_basis(mu, k - 1, q + 1)))
    direct = plus.dim + minus.dim == space.dim and intersect(plus, minus).dim == 0
    return space.dim, plus.dim, minus.dim, direct


def decomposition_dims(d: int, k: int, q: int) -> tuple[int, int, int, bool]:
    """Dimensions of the embedded block H_{k,q} and of its two pieces.

    Returns (dim, dim_plus, dim_minus, direct): dim_plus and dim_minus are
    the dimensions of the intersections of embedded_subspace(d, k, q) with
    span_all_positions(d, k + 1, q - 1) and span_all_positions(d, k - 1, q + 1),
    and direct says that on every weight block the two intersections meet
    only in zero and their dimensions add up to the block's.  Computed per
    weight block, one representative per multiplicity pattern (see the
    module docstring).
    """
    dim = dim_plus = dim_minus = 0
    direct = True
    for mu, count in weight_patterns(d, k + q):
        b_dim, b_plus, b_minus, b_direct = _pattern_block(mu, k, q)
        dim += count * b_dim
        dim_plus += count * b_plus
        dim_minus += count * b_minus
        direct = direct and b_direct
    return dim, dim_plus, dim_minus, direct


def _transposition_sum(v: FullTensor) -> FullTensor:
    """Sum over all slot transpositions (i j), i < j, of the permuted v."""
    n = v.n
    images = (
        permute(v, Permutation.transposition(n, i, j)).coeffs
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    return FullTensor._trusted((v.dim, n), lincomb((1, image) for image in images))


def transposition_sum_matrix(space: Subspace) -> list[list]:
    """Matrix, in the canonical basis, of the sum of all slot transpositions.

    The subspace must be invariant (NotInvariant otherwise).  Entry [i][j]
    is the i-th coordinate of the image of the j-th basis vector.
    """
    cols = [space.coordinates(_transposition_sum(v)) for v in space.basis()]
    return [list(row) for row in zip(*cols)]


def orbit_split_spaces(b: MixedIndex, orbit: Subspace) -> tuple[Subspace, Subspace]:
    """The two invariant pieces of orbit = orbit_span(b, d).

    The transposition sum acts on the orbit span with the two hook
    eigenvalues c+ = k(k+1)/2 - q(q-1)/2 and c- = c+ - n.  Shifting by one
    eigenvalue and taking the image yields the other eigenspace: these are
    n times the two idempotents of the hodge split, read through embed.
    """
    k, q = len(b.sym), len(b.alt)
    n = k + q
    if n < 1:
        raise InvalidIndex("the split needs total degree k + q >= 1")
    c_plus = Fraction(k * (k + 1), 2) - Fraction(q * (q - 1), 2)
    c_minus = c_plus - n
    plus = Subspace(orbit.dim_ground, n)
    minus = Subspace(orbit.dim_ground, n)
    for v in orbit.basis():
        tv = _transposition_sum(v)
        plus.add(tv - v.scale(c_minus))
        minus.add(tv - v.scale(c_plus))
    if plus.dim + minus.dim != orbit.dim:
        raise NotInvariant("transposition sum has an unexpected eigenvalue")
    return plus, minus


def orbit_split_dims(b: MixedIndex, d: int) -> tuple[int, int]:
    """Exact ranks of the two split idempotents restricted to orbit_span(b).

    For a label with all indices distinct these are the two hook
    dimensions (C(n-1, q-1), C(n-1, q)).
    """
    plus, minus = orbit_split_spaces(b, orbit_span(b, d))
    return plus.dim, minus.dim


def action_trace(space: Subspace, p: Permutation):
    """Trace of the slot action of p on an invariant subspace.

    The coordinate of p(v) on a canonical basis vector v with pivot key
    k is read at k, so v adds p(v)[k] / v[k] (NotInvariant if p(v)
    leaves the subspace).
    """
    if p.degree != space.degree:
        raise DimensionMismatch("permutation degree differs from ambient degree")
    total = Fraction(0)
    for v in space.basis():
        image = permute(v, p)
        if not space.contains(image):
            raise NotInvariant("vector lies outside the subspace")
        pivot = min(v.coeffs)
        total += Fraction(image.coeffs.get(pivot, 0), v.coeffs[pivot])
    return total


def class_representatives(n: int) -> list[Permutation]:
    """One permutation per cycle type of S_n: for each partition
    (l_1, l_2, ...) of n, the cycles (1 .. l_1)(l_1+1 .. l_1+l_2) ..."""
    out = []
    for shape in _partitions(n, n, n):
        images: list[int] = []
        for length in shape:
            start = len(images) + 1
            images += list(range(start + 1, start + length)) + [start]
        out.append(Permutation(images))
    return out
