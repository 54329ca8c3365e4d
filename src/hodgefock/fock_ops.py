"""Structural operators on mixed tensor blocks.

lower moves one symmetric slot to the wedge side, raise_ moves one wedge
slot back, both with the alternating signs that make the two families of
maps square to zero and satisfy the degree-n commutation identity

    raise_ . lower + lower . raise_ = (k + q) * id   on H_{k,q}.

Also here: the slot action of permutations on full tensors, and the exact
integer matrices of the operators (operator_matrix, gram_matrix), the
slow public reference.  The verify path reads the model instead: a label
of the block of mu, r = len(mu), is fixed by its wedge set A of {1..r},
so the block is Lambda^q(Q^r), lower is the wedge with u = sum mu_i e_i
and raise_ the contraction with w = sum e_i^*: the Koszul complex of one
vector (Eisenbud, Commutative Algebra, 17), _koszul, with formal mu_i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import DimensionMismatch, InvalidIndex
from .linalg import SparseVector, as_coeff, lincomb
from .tensor_core import (
    FockTensor,
    FullTensor,
    MixedIndex,
    _gram_factor,
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


def permute(t: FullTensor, p: Permutation) -> FullTensor:
    """Relocate slots: the factor in slot i moves to slot p(i)."""
    if p.degree != t.n:
        raise DimensionMismatch(f"permutation degree {p.degree} != tensor degree {t.n}")
    inv = p.inverse().images
    out = {tuple(key[inv[j] - 1] for j in range(t.n)): c for key, c in t.coeffs.items()}
    return FullTensor._trusted((t.dim, t.n), out)


def _wedge_insert(i: int, alt: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and sorted tuple for e_i ^ e_alt, or None when i repeats."""
    if i in alt:
        return None
    below = sum(1 for j in alt if j < i)
    return (-1) ** below, alt[:below] + (i,) + alt[below:]


def lower(t: FockTensor) -> FockTensor:
    """Move one symmetric slot into the wedge part, summed over slots.

    On a label: sum over the k symmetric entries h of (label minus h)
    tensor (h wedged in front).  For k = 0, and on a degenerate zero, the
    result is the zero of the degenerate block (k-1, q+1), so chained
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
    (-1)^(i-1) * (sym with j_i inserted) tensor (wedge minus j_i).  Like
    lower, raise_ is the zero map off the end of the complex, into the
    degenerate block (k+1, -1) at q = 0.
    """
    out: dict[MixedIndex, object] = {}
    for label, c in t.coeffs.items():
        for i, j in enumerate(label.alt):
            new = MixedIndex(tuple(sorted(label.sym + (j,))), label.alt[:i] + label.alt[i + 1 :])
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
        return Fraction(max((abs(v) for v in self.coeffs.values()), default=0))

    def columns(self) -> list[dict]:
        cols: list[dict] = [{} for _ in range(block_dim(*self.dom_sig))]
        for (r, c), v in self.coeffs.items():
            cols[c][r] = v
        return cols


def operator_matrix(which: str, ground, k: int, q: int) -> LinearMap:
    """Matrix of lower or raise_ on a block (ground d or a pattern mu).

    Entries are integers under the package conventions.  lower at k = 0
    and raise_ at q = 0 give zero-row matrices: the codomain is a
    degenerate block.  No verify case builds one (_koszul instead).
    """
    if which not in ("lower", "raise"):
        raise InvalidIndex(f"unknown operator {which!r}")
    op, shift = (lower, -1) if which == "lower" else (raise_, 1)
    cod_sig = (ground, k + shift, q - shift)
    index = {label: i for i, label in enumerate(enum_basis(*cod_sig))}
    entries: dict[tuple[int, int], object] = {}
    for c, label in enumerate(enum_basis(ground, k, q)):
        image = op(FockTensor._trusted((ground, k, q), {label: 1}))
        for lab, v in image.coeffs.items():
            entries[(index[lab], c)] = v
    return LinearMap._trusted(((ground, k, q), cod_sig), entries)


def gram_matrix(ground, k: int, q: int) -> LinearMap:
    """Diagonal pairing matrix of a block: multiplicity factorials."""
    ent = {(i, i): _gram_factor(label) for i, label in enumerate(enum_basis(ground, k, q))}
    return LinearMap._trusted(((ground, k, q), (ground, k, q)), ent)


def _columns(which: str, r: int, q: int) -> list:
    """ε ("lower") or ι ("raise") on the q-subsets A of {1..r}, listed as the
    wedge sets of the labels of every pattern block with r parts (those of
    1^r) are: the column of e_i ^ e_A = sign e_{A+i} (_wedge_insert) is
    {(row, i - 1): sign}, and the contraction of the p-th entry of A is
    {row: (-1)^p}."""
    shift = 1 if which == "lower" else -1
    sets, rows = ([b.alt for b in enum_basis((1,) * r, r - p, p)] for p in (q, q + shift))
    row = {a: i for i, a in enumerate(rows)}
    if which == "raise":
        return [{row[a[:p] + a[p + 1 :]]: (-1) ** p for p in range(q)} for a in sets]
    inserts = (((i, _wedge_insert(i + 1, a)) for i in range(r)) for a in sets)
    return [{(row[ins[1]], i): ins[0] for i, ins in col if ins} for col in inserts]


@lru_cache(maxsize=None)
def _koszul(r: int, q: int) -> tuple:
    """(ε, ι, checks, traces, residual): the model on the q-subsets of
    {1..r}, lower = sum_i mu_i ε_i and raise_ = ι, checked once per (r, q)
    with formal weights (an entry keyed (row, i) is a coefficient of mu_i,
    (row, i, j) one of mu_i mu_j).  checks: (name, shift, first failing
    column or None) for A + B = n I, L L = 0 from H_{k+1,q-1} (shift 1) and
    R R = 0 from H_{k-1,q+1}; traces: (tr B, tr A) as coefficients of
    mu_1..mu_r; residual: the nonzero columns of A + B - n I."""
    eps_below, eps = (_columns("lower", r, p) for p in (q - 1, q))
    iota, iota_above = (_columns("raise", r, p) for p in (q, q + 1))
    a = [lincomb((s, eps_below[m]) for m, s in col.items()) for col in iota]
    b = [lincomb((s, {(row, i): v for row, v in iota_above[m].items()}) for (m, i), s in c.items())
         for c in eps]
    ll = [lincomb((s, {(row, *sorted((i, j))): v for (row, j), v in eps[m].items()})
                  for (m, i), s in c.items()) for c in eps_below]
    rr = [lincomb((s, iota[m]) for m, s in col.items()) for col in iota_above]
    residual = [lincomb(((1, x), (1, y), (-1, {(c, i): 1 for i in range(r)})))
                for c, (x, y) in enumerate(zip(a, b))]
    names = (("plus + minus = t", 0, residual), ("lower lower = 0", 1, ll),
             ("raise_ raise_ = 0", -1, rr))
    checks = tuple((name, i, next((c for c, x in enumerate(m) if x), None))
                   for name, i, m in names)
    traces = tuple([sum(x.get((c, i), 0) for c, x in enumerate(m)) for i in range(r)]
                   for m in (b, a))
    return eps, iota, checks, traces, [x for x in residual if x]


def _model_images(which: str, mu: tuple, q: int) -> list[dict]:
    """The model's column of lower (which = "lower") or raise_ on each label
    of the block of mu with q wedge slots, as {row: coefficient}, rows and
    columns in enum_basis order.  The raise_ columns are _koszul's ι
    themselves: callers read them and never mutate them."""
    eps, iota = _koszul(len(mu), q)[:2]
    if which == "lower":
        return [{row: s * mu[i] for (row, i), s in col.items()} for col in eps]
    return iota


@lru_cache(maxsize=None)
def _adjoint_residual(ground: tuple, k: int, q: int):
    """The first label u of H_{k,q} where G' L - (G R')^T has a nonzero
    column, or None: L and R' are the model's lower on H_{k,q} and raise_ on
    H_{k-1,q+1} over the pattern ground, and G, G' the diagonal pairings
    (_gram_factor), entry by entry: G'_ww mu_i = G_uu for w = u + i.
    Cached per block: the split and the chaos adjoint both read it."""
    labels = enum_basis(ground, k, q)
    gram, gram_up = ([_gram_factor(b) for b in enum_basis(ground, k + i, q - i)] for i in (0, -1))
    right: list[dict] = [{} for _ in labels]
    for w, col in enumerate(_model_images("raise", ground, q + 1)):
        for u, v in col.items():
            right[u][w] = gram[u] * v
    left = ({w: gram_up[w] * v for w, v in c.items()} for c in _model_images("lower", ground, q))
    return next((u for u, lo, ra in zip(labels, left, right) if lo != ra), None)
