"""Exact sparse linear algebra over the rationals.

This module owns the one sparse-vector format of the package.  A vector
is a dict mapping a totally ordered key (an int, or a tuple of ints) to a
nonzero coefficient; absent keys are zero.  Coefficients are ints or
fractions.Fraction, never floats, so every rank, kernel and echelon form
below is exact.

EchelonBasis is the one elimination routine; matrix_rank and
kernel_basis are built on it.  It clears each input's denominators and
keeps its rows as primitive integer vectors, reduced by fraction-free
integer cross-multiplication; those rows are the one basis of the span
that callers read.  No verify case eliminates or multiplies matrices
(Fock ranks are traces of the Koszul model, fock_ops._koszul).

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
from math import gcd, lcm

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


def _integer_row(vec: dict) -> dict:
    """vec times the lcm of its denominators: an integer vector, zeros dropped.

    This is the edge of the elimination: every entry goes through
    as_coeff, so floats are refused here.
    """
    coeffs = {key: as_coeff(v) for key, v in vec.items()}
    # A running lcm: lcm(*denominators) would build a list and a tuple as
    # long as vec.
    m = 1
    for c in coeffs.values():
        m = lcm(m, c.denominator)
    return {key: c.numerator * (m // c.denominator) for key, c in coeffs.items() if c}


def _primitive(vec: dict, p) -> dict:
    """vec divided by the gcd of its entries, signed so that vec[p] > 0."""
    g = gcd(*vec.values())
    if vec[p] < 0:
        g = -g
    return vec if g == 1 else {key: v // g for key, v in vec.items()}


def _cancel(vec: dict, row: dict, p) -> dict:
    """a * vec - c * row for a = row[p] > 0 and c = vec[p], both divided by
    gcd(a, c): an integer vector without key p.  vec is updated in place
    when a == 1."""
    a, c = row[p], vec[p]
    g = gcd(a, c)
    a, c = a // g, c // g
    if a != 1:
        vec = {key: a * v for key, v in vec.items()}
    for key, v in row.items():
        cur = vec.get(key, 0) - c * v
        if cur:
            vec[key] = cur
        else:
            del vec[key]
    return vec


class EchelonBasis:
    """A reduced-echelon family of sparse vectors, stored as primitive integer rows.

    Each stored row is keyed by its pivot (its smallest key), has no entry
    at any other row's pivot, has a positive pivot entry, and has
    coprime entries.  That scaling of the reduced echelon form is unique,
    so the stored rows are a canonical basis of the span: two spans are
    equal iff the bases compare equal.  Inputs are cleared of
    denominators on the way in, and elimination is fraction-free integer
    cross-multiplication (Bareiss, Math. Comp. 22, 1968; here each row's
    content gcd is divided out instead), with no modular shortcut.
    rows() and coordinates() read that one basis.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, EchelonBasis) and self._rows == other._rows

    __hash__ = None

    def rows(self) -> list[dict]:
        """The stored integer rows in pivot order, read-only and valid until the next insert."""
        return [self._rows[p] for p in sorted(self._rows)]

    def _reduce(self, vec: dict) -> dict:
        """A nonzero multiple of the residue of vec against the stored rows.

        Rows are fully reduced, so cancelling pivot p adds no other
        pivot key: one pass over the pivots present in vec suffices.
        """
        out = _integer_row(vec)
        rows = self._rows
        for p in [key for key in out if key in rows]:
            out = _cancel(out, rows[p], p)
        return out

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span.  Returns True iff the dimension grew."""
        res = self._reduce(vec)
        if not res:
            return False
        p = min(res)
        new = _primitive(res, p)
        rows = self._rows
        for q, row in rows.items():
            if p in row:
                rows[q] = _primitive(_cancel(row, new, p), q)
        rows[p] = new
        return True

    def coordinates(self, vec: dict) -> list | None:
        """Coefficients of vec on rows(), or None if outside.

        Because rows are fully reduced, the coefficient on the row with
        pivot p is vec[p] / row[p], an exact Fraction.
        """
        if self._reduce(vec):
            return None
        return [Fraction(vec.get(p, 0), row[p]) for p, row in sorted(self._rows.items())]


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
    its pivot at some (1, j), and its tag part is a kernel vector, with
    coprime integer entries.
    """
    ech = EchelonBasis()
    for j, col in enumerate(columns):
        vec = {(0, key): v for key, v in col.items()}
        vec[(1, j)] = 1
        ech.insert(vec)
    return [
        {j: v for (_, j), v in row.items()}
        for p, row in sorted(ech._rows.items())
        if p[0] == 1
    ]
