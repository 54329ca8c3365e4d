"""Polynomial Gaussian model of the mixed blocks.

Take R^d with the standard Gaussian weight.  The degree-k symmetric block
maps onto polynomials through

    label with multiplicities (a_1, ..., a_d)  |->  prod_i He_{a_i}(x_i)

where He_m is the monic (probabilists') Hermite polynomial, He_{m+1} =
x He_m - m He_{m-1}.  Why this is the right dictionary: summing the
labels of h^(.k)/k! over k gives, coordinate by coordinate, the
generating series sum_m c^m He_m(x)/m! = exp(c x - c^2/2), so the
exponential vector of h goes to exp(<h, x> - |h|^2/2); and the Gaussian
moments E[He_a He_b] = a! delta_ab per coordinate reproduce exactly the
permanent pairing of the symmetric block.  Both facts are enforced by the
test suite, exhaustively in low degree.

A mixed block goes to polynomial differential forms: the wedge part is
carried along as the component key.  Under the dictionary, lower becomes
the gradient-and-wedge operator (exterior_derivative) and raise_ becomes
the Gaussian divergence (codifferential); their composite on functions is
the classical number operator x . grad - laplacian (ornstein_uhlenbeck),
diagonal with eigenvalue = total Hermite degree.

In Hermite coordinates, keyed (wedge key, multi-degree) by hermite_key,
both operators are integer shifts, one coordinate at a time:
He_a' = a He_{a-1} for the derivative and x He_a - He_a' = He_{a+1} for
the creation part of the divergence.  hermite_matrix writes them as
matrices indexed by the labels of the neighbouring blocks, so the
`verify chaos` suite proves the dictionary by comparing them with the
integer matrices of lower and raise_ (operator_matrix), with no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Mapping

from .errors import DegreeOutOfRange, DimensionMismatch, InvalidIndex
from .fock_ops import LinearMap, _wedge_insert
from .linalg import SparseVector, as_coeff, dot, lincomb
from .tensor_core import FockTensor, MixedIndex, enum_basis


def _render_monomial(exps: tuple[int, ...]) -> str:
    return "*".join(f"x{i}" if m == 1 else f"x{i}^{m}" for i, m in enumerate(exps, start=1) if m)


def _check_multidegrees(dim: int, coeffs: Mapping | None, what: str) -> dict:
    """Validated, merged copy of a dict keyed by nonnegative dim-tuples."""
    if dim < 1:
        raise DimensionMismatch(f"number of variables must be >= 1, got {dim}")
    data: dict[tuple[int, ...], object] = {}
    for key, c in (coeffs or {}).items():
        key = tuple(key)
        if len(key) != dim or any(e < 0 for e in key):
            raise InvalidIndex(f"bad {what} {key!r} for dim {dim}")
        data[key] = data.get(key, 0) + as_coeff(c)
    return data


class Poly(SparseVector):
    """Polynomial in x_1..x_dim with exact coefficients, sparse by exponent."""

    __slots__ = ("dim",)

    _render_key = staticmethod(_render_monomial)

    def __init__(self, dim: int, coeffs: Mapping | None = None):
        self._set((dim,), _check_multidegrees(dim, coeffs, "exponent tuple"))

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, c) -> "Poly":
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def variable(cls, dim: int, i: int) -> "Poly":
        if not 1 <= i <= dim:
            raise InvalidIndex(f"variable index {i} outside 1..{dim}")
        exps = tuple(1 if j == i else 0 for j in range(1, dim + 1))
        return cls(dim, {exps: 1})

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_same(other)
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly._trusted((self.dim,), out)

    def diff(self, i: int) -> "Poly":
        """Partial derivative in x_i."""
        if not 1 <= i <= self.dim:
            raise InvalidIndex(f"variable index {i} outside 1..{self.dim}")
        out = {
            e[: i - 1] + (e[i - 1] - 1,) + e[i:]: e[i - 1] * c
            for e, c in self.coeffs.items()
            if e[i - 1]
        }
        return Poly._trusted((self.dim,), out)


@lru_cache(maxsize=None)
def _he_coeffs(a: int) -> tuple[tuple[int, int], ...]:
    """Monomial coefficients of He_a as ((exponent, coeff), ...)."""
    if a == 0:
        return ((0, 1),)
    if a == 1:
        return ((1, 1),)
    prev2 = dict(_he_coeffs(a - 2))
    prev1 = dict(_he_coeffs(a - 1))
    out: dict[int, int] = {}
    for e, c in prev1.items():
        out[e + 1] = out.get(e + 1, 0) + c
    for e, c in prev2.items():
        out[e] = out.get(e, 0) - (a - 1) * c
    return tuple(sorted((e, c) for e, c in out.items() if c))


@lru_cache(maxsize=None)
def _x_power_in_he(m: int) -> tuple[tuple[int, int], ...]:
    """x^m written in the Hermite basis, via x He_j = He_{j+1} + j He_{j-1}."""
    if m == 0:
        return ((0, 1),)
    out: dict[int, int] = {}
    for j, c in _x_power_in_he(m - 1):
        out[j + 1] = out.get(j + 1, 0) + c
        if j:
            out[j - 1] = out.get(j - 1, 0) + j * c
    return tuple(sorted((j, c) for j, c in out.items() if c))


def _expand_product(table, key: tuple[int, ...]) -> dict:
    """prod_i f_{key_i}(x_i) multiplied out, where table(a) lists the terms
    (exponent, coeff) of the one-variable f_a; keys never collide."""
    partial: dict[tuple[int, ...], object] = {(): 1}
    for a in key:
        partial = {prefix + (e,): v * w for prefix, v in partial.items() for e, w in table(a)}
    return partial


@lru_cache(maxsize=None)
def _monomial_in_he(exps: tuple[int, ...]) -> tuple:
    """prod_i x_i^{exps_i} in the product Hermite basis, as (key, coeff)
    pairs; the same monomials recur in every wedge component."""
    return tuple(_expand_product(_x_power_in_he, exps).items())


def _hermite_monomial(mult: tuple[int, ...]) -> dict:
    """prod_i He_{mult_i}(x_i), as monomial coefficients."""
    return _expand_product(_he_coeffs, mult)


def hermite(a: int) -> Poly:
    """Monic Hermite polynomial He_a in one variable."""
    if a < 0:
        raise DegreeOutOfRange(f"Hermite degree must be >= 0, got {a}")
    return Poly(1, {(e,): c for e, c in _he_coeffs(a)})


class HermiteExpansion(SparseVector):
    """Exact coordinates of a polynomial in the product Hermite basis.

    Keys are multi-degrees (a_1..a_dim) with coefficient on
    prod_i He_{a_i}(x_i).  The change of basis is triangular with integer
    entries both ways, so from_poly and to_poly are exact inverses.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int, coeffs: Mapping | None = None):
        self._set((dim,), _check_multidegrees(dim, coeffs, "Hermite multi-degree"))

    @classmethod
    def from_poly(cls, p: Poly) -> "HermiteExpansion":
        out: dict[tuple[int, ...], object] = {}
        for exps, c in p.coeffs.items():
            for key, w in _monomial_in_he(exps):
                out[key] = out.get(key, 0) + c * w
        return cls._trusted((p.dim,), out)

    def to_poly(self) -> Poly:
        terms = ((c, _hermite_monomial(key)) for key, c in self.coeffs.items())
        return Poly._trusted((self.dim,), lincomb(terms))

    def total_degrees(self) -> set[int]:
        return {sum(key) for key in self.coeffs}


class FormField(SparseVector):
    """Polynomial q-form on R^d, sparse over (wedge key, exponent tuple).

    The constructor takes component polynomials on wedge keys, and
    component(J) gives one back; the operators act on the flat monomials.
    A degree q < 0 or q > dim has no wedge key, so only the zero form
    lives there: the degree a form operator reaches off the end of the
    complex, as with FockTensor.
    """

    __slots__ = ("dim", "q")

    def __init__(self, dim: int, q: int, comps: Mapping | None = None):
        if dim < 1:
            raise DimensionMismatch(f"ground dimension must be >= 1, got {dim}")
        data: dict[tuple, object] = {}
        for key, poly in (comps or {}).items():
            key = tuple(key)
            if len(key) != q or any(
                not 1 <= i <= dim for i in key
            ) or any(a >= b for a, b in zip(key, key[1:])):
                raise InvalidIndex(f"bad wedge key {key!r} for a {q}-form on R^{dim}")
            if not isinstance(poly, Poly):
                raise TypeError("components must be Poly")
            if poly.dim != dim:
                raise DimensionMismatch("component variable count differs from dim")
            for e, c in poly.coeffs.items():
                data[(key, e)] = data.get((key, e), 0) + c
        self._set((dim, q), data)

    @classmethod
    def zero(cls, dim: int, q: int) -> "FormField":
        return cls(dim, q)

    @staticmethod
    def _render_key(key) -> str:
        wedge, exps = key
        parts = (_render_monomial(exps), "^".join(f"dx{i}" for i in wedge))
        return "*".join(p for p in parts if p)

    def component(self, key: Iterable[int]) -> Poly:
        key = tuple(key)
        return Poly._trusted((self.dim,), {e: c for (j, e), c in self.coeffs.items() if j == key})

    def items(self) -> list:
        """The nonzero components as sorted (wedge key, Poly) pairs."""
        comps: dict[tuple[int, ...], dict] = {}
        for (key, e), c in self.coeffs.items():
            comps.setdefault(key, {})[e] = c
        return sorted((key, Poly._trusted((self.dim,), mono)) for key, mono in comps.items())

    def hermite_degrees(self) -> set[int]:
        out: set[int] = set()
        for _, p in self.items():
            out |= HermiteExpansion.from_poly(p).total_degrees()
        return out


@dataclass(frozen=True)
class GradedFock:
    """Finite stack of symmetric blocks, graded by degree k."""

    dim: int
    parts: dict

    def part(self, k: int) -> FockTensor:
        return self.parts.get(k, FockTensor.zero(self.dim, k, 0))

    def order(self) -> int:
        return max(self.parts, default=0)


def _label_multiplicities(label: MixedIndex, dim: int) -> tuple[int, ...]:
    mult = [0] * dim
    for i in label.sym:
        mult[i - 1] += 1
    return tuple(mult)


def hermite_key(label: MixedIndex, dim: int) -> tuple:
    """The dictionary on one label: e_b goes to He_{mult(b)} dx_{b.alt},
    the Hermite coordinate keyed (b.alt, mult(b))."""
    return label.alt, _label_multiplicities(label, dim)


def chaos_poly(t: FockTensor) -> Poly:
    """Polynomial of a purely symmetric tensor (q = 0) in the Gaussian model."""
    if t.q != 0:
        raise DegreeOutOfRange(f"chaos_poly needs q = 0, got q = {t.q}")
    return chaos_field(t).component(())


def chaos_field(t: FockTensor) -> FormField:
    """Polynomial q-form of a mixed tensor: wedge part becomes the key.

    A degenerate block (k < 0, q < 0 or q > d) holds only zero, which goes
    to the zero form of the same degree q."""
    out: dict[tuple, object] = {}
    for label, c in t.coeffs.items():
        wedge, mult = hermite_key(label, t.dim)
        for e, w in _hermite_monomial(mult).items():
            out[(wedge, e)] = out.get((wedge, e), 0) + c * w
    return FormField._trusted((t.dim, t.q), out)


def exp_vector(h: Iterable, order: int) -> GradedFock:
    """Truncated exponential vector: degree-k part of exp of h, k <= order.

    The degree-k coefficients on a label with multiplicities a are
    prod_i h_i^{a_i} / a_i!; these are the labels of h^(.k) / k! under the
    package's unnormalized symmetric product.
    """
    hs = [as_coeff(c) for c in h]
    d = len(hs)
    if d < 1:
        raise DimensionMismatch("h must have at least one coordinate")
    if order < 0:
        raise DegreeOutOfRange(f"truncation order must be >= 0, got {order}")

    def coeff(label: MixedIndex):
        return prod(
            Fraction(hi) ** a / factorial(a) for hi, a in zip(hs, _label_multiplicities(label, d))
        )

    parts = {
        k: FockTensor._trusted((d, k, 0), {b: coeff(b) for b in enum_basis(d, k, 0)})
        for k in range(order + 1)
    }
    return GradedFock(d, parts)


def exterior_derivative(u: FormField) -> FormField:
    """Gradient wedged onto each component: (q+1)-form of d applied to u."""
    out: dict[tuple, object] = {}
    for (key, e), c in u.coeffs.items():
        for i, m in enumerate(e, start=1):
            ins = _wedge_insert(i, key) if m else None
            if ins is None:
                continue
            sign, new = ins
            mono = (new, e[: i - 1] + (m - 1,) + e[i:])
            out[mono] = out.get(mono, 0) + sign * m * c
    return FormField._trusted((u.dim, u.q + 1), out)


def codifferential(u: FormField) -> FormField:
    """Gaussian divergence: on f * e_J it contracts each wedge slot j_i with
    the creation operator x_{j_i} f - df/dx_{j_i}, signs alternating.  A
    0-form has no wedge slot, so its image is the zero (-1)-form."""
    out: dict[tuple, object] = {}
    for (key, e), c in u.coeffs.items():
        for pos, j in enumerate(key):
            sign = -1 if pos % 2 else 1
            new = key[:pos] + key[pos + 1 :]
            m = e[j - 1]
            up = (new, e[: j - 1] + (m + 1,) + e[j:])
            out[up] = out.get(up, 0) + sign * c
            if m:
                down = (new, e[: j - 1] + (m - 1,) + e[j:])
                out[down] = out.get(down, 0) - sign * m * c
    return FormField._trusted((u.dim, u.q - 1), out)


def _hermite_image(which: str, key: tuple[int, ...], m: tuple[int, ...]):
    """d ("lower") or δ ("raise") of He_m dx_key in Hermite coordinates,
    as (coeff, (wedge key, multi-degree)) terms:

        d: He_m dx_J -> sum_i m_i He_{m-e_i} dx_i ^ dx_J,
        δ: He_m dx_J -> sum_pos (-1)^pos He_{m+e_j} dx_{J without j},  j = J[pos].

    These are the ladders He_a' = a He_{a-1} and x He_a - He_a' = He_{a+1}
    applied one coordinate at a time, with the wedge signs of
    exterior_derivative and codifferential.
    """
    if which == "lower":
        for i, a in enumerate(m, start=1):
            ins = _wedge_insert(i, key) if a else None
            if ins is not None:
                sign, new = ins
                yield sign * a, (new, m[: i - 1] + (a - 1,) + m[i:])
    else:
        for pos, j in enumerate(key):
            up = m[: j - 1] + (m[j - 1] + 1,) + m[j:]
            yield (-1) ** pos, (key[:pos] + key[pos + 1 :], up)


def hermite_matrix(which: str, d: int, k: int, q: int) -> LinearMap:
    """Matrix of d ("lower") or δ ("raise") on the chaos of H_{k,q}.

    Column b is _hermite_image of He_{mult(b)} dx_{b.alt}, and each image
    key is read back as the label of the neighbouring block with that
    hermite_key.  Under the dictionary this must equal
    operator_matrix(which, d, k, q), entry for entry; off the end of the
    complex both are zero maps into the empty block.
    """
    if which not in ("lower", "raise"):
        raise InvalidIndex(f"unknown operator {which!r}")
    cod_sig = (d, k - 1, q + 1) if which == "lower" else (d, k + 1, q - 1)
    index = {hermite_key(b, d): r for r, b in enumerate(enum_basis(*cod_sig))}
    entries: dict[tuple[int, int], object] = {}
    for c, b in enumerate(enum_basis(d, k, q)):
        for v, key in _hermite_image(which, *hermite_key(b, d)):
            entries[(index[key], c)] = v
    return LinearMap._trusted(((d, k, q), cod_sig), entries)


def _as_form(f) -> FormField:
    if isinstance(f, FormField):
        return f
    if isinstance(f, Poly):
        return FormField._trusted((f.dim, 0), {((), e): c for e, c in f.coeffs.items()})
    raise TypeError(f"expected Poly or FormField, got {type(f).__name__}")


def ornstein_uhlenbeck(f: Poly) -> Poly:
    """Number operator x . grad - laplacian; He-diagonal with eigenvalue
    equal to the total Hermite degree."""
    return codifferential(exterior_derivative(_as_form(f))).component(())


def hodge_laplacian(u) -> FormField:
    """Hodge Laplacian delta d u + d delta u, delta = codifferential and
    d = exterior_derivative.  On a 0-form delta u is the zero (-1)-form,
    so only delta d u, the number operator, is left."""
    u = _as_form(u)
    return codifferential(exterior_derivative(u)) + exterior_derivative(codifferential(u))


def gaussian_inner(u, v):
    """Gaussian expectation pairing: sum over wedge keys of E[f_J g_J].

    Computed through the Hermite expansions, E[He_a He_b] = a! delta_ab
    coordinate-wise; exact, no quadrature.
    """
    u = _as_form(u)
    v = _as_form(v)
    u._check_same(v)
    v_comps = dict(v.items())
    total = Fraction(0)
    for key, f in u.items():
        g = v_comps.get(key)
        if g is not None:
            fe = HermiteExpansion.from_poly(f).coeffs
            ge = HermiteExpansion.from_poly(g).coeffs
            total += dot(fe, ge, lambda a: prod(map(factorial, a)))
    return total


def expectation(f: Poly):
    """Exact Gaussian mean: the degree-zero Hermite coefficient."""
    return Fraction(
        HermiteExpansion.from_poly(f).coeffs.get((0,) * f.dim, 0)
    )


def commutation_defect(h: Iterable, x: tuple[int, ...], order: int) -> FormField:
    """Mismatch of the two routes around the chaos square at one truncation.

    Route one: exterior_derivative of the chaos field of
    (truncated exponential vector of h) tensor (wedge x).  Route two: the
    chaos field of (same truncation) tensor (h wedge x).  Without
    truncation the two agree; truncating at `order` leaves a defect
    supported purely in Hermite degree `order`, the top chunk that route
    one differentiates away but route two keeps.
    """
    if order < 1:
        raise DegreeOutOfRange(f"truncation order must be >= 1, got {order}")
    hs = [as_coeff(c) for c in h]
    d = len(hs)
    x = tuple(x)
    if any(not 1 <= i <= d for i in x) or any(a >= b for a, b in zip(x, x[1:])):
        raise InvalidIndex(f"x must be a strictly increasing tuple in 1..{d}")
    q = len(x)
    graded = exp_vector(hs, order)

    def tensor_with(key: tuple[int, ...]) -> FormField:
        relabelled = (
            FockTensor._trusted(
                (d, k, len(key)), {MixedIndex(b.sym, key): c for b, c in part.coeffs.items()}
            )
            for k, part in graded.parts.items()
        )
        return FormField._trusted(
            (d, len(key)), lincomb((1, chaos_field(t).coeffs) for t in relabelled)
        )

    left = exterior_derivative(tensor_with(x))
    right = FormField.zero(d, q + 1)
    for i in range(1, d + 1):
        if not hs[i - 1]:
            continue
        ins = _wedge_insert(i, x)
        if ins is None:
            continue
        sign, new = ins
        right = right + tensor_with(new).scale(sign * hs[i - 1])
    return left - right
