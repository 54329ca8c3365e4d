"""Exact sparse linear algebra over the rationals.

This module owns the one sparse-vector format of the package.  A vector
is a dict mapping a totally ordered key (an int, or a tuple of ints) to a
nonzero coefficient; absent keys are zero.  Coefficients are ints or
fractions.Fraction, never floats, so every rank, kernel and echelon form
below is exact.

SparseVector is the base of every exact container (FockTensor,
FullTensor, Poly, HermiteExpansion, FormField, LinearMap): arithmetic,
equality and rendering are written once, here.  Validation happens only
at the public edge, in each subclass's own __init__.  Operators build
their output with _trusted, which skips the checks and drops the zeros
once, so their inner loops just accumulate with
out[key] = out.get(key, 0) + v.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch


def as_coeff(x):
    """Coerce a scalar to an exact coefficient; floats are refused."""
    if isinstance(x, float):
        raise TypeError("float coefficients are not exact; use Fraction")
    if isinstance(x, (int, Fraction)):
        return x
    return Fraction(x)


def lincomb(terms) -> dict:
    """sum c * vec over the (c, vec) pairs, zeros dropped."""
    out: dict = {}
    for c, vec in terms:
        for key, v in vec.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def dot(a: dict, b: dict, weight=None):
    """sum a[key] * b[key] (times weight(key) when given) over common keys."""
    if len(a) > len(b):
        a, b = b, a
    total = Fraction(0)
    for key, c in a.items():
        other = b.get(key)
        if other:
            total += c * other if weight is None else c * other * weight(key)
    return total


def _render_tuple(key: tuple) -> str:
    return "({})".format(",".join(map(str, key)))


class SparseVector:
    """Exact sparse vector with a per-class shape.

    A subclass's __slots__ name its shape attributes, in order; shape()
    reads them and two vectors combine only when their shapes agree.
    Treated as immutable: all operations return fresh vectors.
    """

    __slots__ = ("coeffs",)

    _render_key = staticmethod(_render_tuple)

    def _set(self, shape: tuple, coeffs: dict) -> "SparseVector":
        for name, value in zip(self.__slots__, shape):
            setattr(self, name, value)
        self.coeffs = {key: v for key, v in coeffs.items() if v}
        return self

    @classmethod
    def _trusted(cls, shape: tuple, coeffs: dict):
        """Internal constructor for operator outputs: keys are not checked."""
        return object.__new__(cls)._set(shape, coeffs)

    def shape(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> list:
        return sorted(self.coeffs.items())

    def _check_same(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.shape() != other.shape():
            raise DimensionMismatch(f"shape mismatch: {self.shape()} vs {other.shape()}")

    def _plus(self, other, c):
        self._check_same(other)
        return self._trusted(self.shape(), lincomb(((1, self.coeffs), (c, other.coeffs))))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = as_coeff(c)
        return self._trusted(self.shape(), {key: c * v for key, v in self.coeffs.items()})

    __mul__ = __rmul__ = scale

    def __truediv__(self, c):
        return self.scale(Fraction(1) / as_coeff(c))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.shape() == other.shape()
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def render(self) -> str:
        """Canonical text form: terms sorted by key, coefficients exact."""
        if not self.coeffs:
            return "0"
        terms = ((c, self._render_key(key)) for key, c in sorted(self.coeffs.items()))
        return " + ".join(f"{c}*{r}" if r else f"{c}" for c, r in terms)

    def __repr__(self):
        return f"{type(self).__name__}({','.join(map(str, self.shape()))}: {self.render()})"


def subtract_scaled(vec: dict, row: dict, c) -> None:
    """In place: vec -= c * row, dropping entries that cancel to zero."""
    for key, val in row.items():
        cur = vec.get(key, 0) - c * val
        if cur:
            vec[key] = cur
        else:
            vec.pop(key, None)


def eliminate(vec: dict, rows: dict) -> dict:
    """Reduce a copy of vec against rows (a dict pivot -> pivot-normalized row).

    Rows must be in echelon form: each row's pivot is its smallest key.
    A single pass in increasing pivot order then suffices, because
    eliminating pivot p only introduces keys larger than p.
    """
    out = dict(vec)
    for p in sorted(rows):
        c = out.get(p)
        if c:
            subtract_scaled(out, rows[p], c)
    return out


class EchelonBasis:
    """A reduced-echelon family of sparse vectors with pivots normalized to 1.

    The stored rows are a canonical basis of the span: two spans are equal
    iff the row dicts are equal, which the tests rely on.  This is the one
    elimination routine of the package; matrix_rank and kernel_basis are
    built on it.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> list[dict]:
        return [self.rows[p] for p in sorted(self.rows)]

    def reduce(self, vec: dict) -> dict:
        return eliminate(vec, self.rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span.  Returns True iff the dimension grew."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        inv = Fraction(1) / res[p]
        new = {k: v * inv for k, v in res.items()}
        for row in self.rows.values():
            c = row.get(p)
            if c:
                subtract_scaled(row, new, c)
        self.rows[p] = new
        return True

    def coordinates(self, vec: dict) -> list | None:
        """Coefficients of vec in the stored row basis, or None if outside.

        Because rows are fully reduced, the coefficient on the row with
        pivot p is just vec[p].
        """
        if self.reduce(vec):
            return None
        return [vec.get(p, 0) for p in sorted(self.rows)]


def matrix_rank(columns: list[dict]) -> int:
    """Rank of the matrix whose columns are the given sparse vectors."""
    ech = EchelonBasis()
    for col in columns:
        ech.insert(col)
    return ech.dim


def kernel_basis(columns: list[dict]) -> list[dict]:
    """Basis of {x : sum_j x_j * columns[j] = 0}.

    Each kernel element is a dict column-index -> coefficient.  The
    augmented vectors (columns[j] keyed (0, key), plus 1 at (1, j)) are
    row-reduced together; a reduced row with no (0, key) entry left has
    its pivot at some (1, j), and its tag part is a kernel vector.
    """
    ech = EchelonBasis()
    for j, col in enumerate(columns):
        vec = {(0, key): v for key, v in col.items()}
        vec[(1, j)] = 1
        ech.insert(vec)
    return [
        {j: v for (_, j), v in row.items()}
        for p, row in sorted(ech.rows.items())
        if p[0] == 1
    ]
