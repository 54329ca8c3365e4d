"""Polynomial Gaussian model of the mixed blocks.

Take R^d with the standard Gaussian weight.  The degree-k symmetric block
maps onto polynomials through

    label with multiplicities (a_1, ..., a_d)  |->  prod_i He_{a_i}(x_i)

where He_m is the monic (probabilists') Hermite polynomial, He_{m+1} =
x He_m - m He_{m-1}.  Summing the labels of h^(.k)/k! over k gives the
generating series sum_m c^m He_m(x)/m! = exp(c x - c^2/2) per coordinate,
so the exponential vector of h goes to exp(<h, x> - |h|^2/2), and the
moments E[He_a He_b] = a! delta_ab reproduce the permanent pairing.

A mixed block goes to polynomial differential forms, the wedge part
carried as the component key.  lower becomes the gradient-and-wedge
operator (exterior_derivative) and raise_ the Gaussian divergence
(codifferential); on functions their composite is the number operator
x . grad - laplacian (ornstein_uhlenbeck), with eigenvalue the degree.

A form's Hermite coordinates {(wedge key, multi-degree): c} are its
coefficients on He_m dx_J.  Forms change basis only in
FormField.from_hermite, which multiplies them out into monomials, and
FormField.hermite_coords, which reads each component back through
HermiteExpansion.from_poly.  In these coordinates (hermite_key gives a
label's key) both operators are integer shifts, one coordinate at a
time (_hermite_image): He_a' = a He_{a-1} and x He_a - He_a' = He_{a+1}.
The `verify chaos` suite proves the dictionary with no sampling and no
form read back: on each label the shift gives the column of the Koszul
model (fock_ops._koszul), and hermite_key is injective on each block's
labels; the one-variable tables are checked once per degree.  Each
pattern block has one record of these Gaussian facts
(_chaos_pattern_holds); the case ands in the Fock facts it reads, lower
and raise_ against the same model (hodge._dictionary) and the
adjointness (fock_ops._adjoint_residual).  The round trip through
monomials (chaos_field, hermite_coords, gaussian_inner) is the tests'
oracle of that record.

The truncation square (commutation_defect) is a polynomial identity in
h: on each monomial h^c, both routes are Hermite coordinates built from
the shift _hermite_image and the wedge sign _wedge_insert
(_truncation_routes).  commutation_defect sums them for one given h; the
chaos-truncation case checks them for every h, one c per relabelling
class of the coordinates other than 1, and calls neither it nor exp_vector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Mapping, NamedTuple

from .errors import DegreeOutOfRange, DimensionMismatch, InvalidIndex
from .fock_ops import _adjoint_residual, _model_images, _wedge_insert
from .hodge import _dictionary, weitzenboeck_defect
from .linalg import SparseVector, as_coeff, dot, lincomb
from .tensor_core import FockTensor, MixedIndex, _gram_factor, block_dim, enum_basis
from .tensor_core import _partitions, weight_patterns


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
        terms = ((c, _expand_product(_he_coeffs, key)) for key, c in self.coeffs.items())
        return Poly._trusted((self.dim,), lincomb(terms))


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
            if len(key) != q or not all(a < b for a, b in zip((0, *key), (*key, dim + 1))):
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

    @classmethod
    def from_hermite(cls, dim: int, q: int, coords: Mapping) -> "FormField":
        """The q-form sum c He_m dx_J over its Hermite coordinates
        {(J, m): c}, each product He_m multiplied out once per call.
        The keys are not checked: J must be a wedge key of a q-form on
        R^dim and m a multi-degree of length dim."""
        out: dict[tuple, object] = {}
        expanded: dict[tuple[int, ...], dict] = {}
        for (key, mult), c in coords.items():
            if mult not in expanded:
                expanded[mult] = _expand_product(_he_coeffs, mult)
            for e, w in expanded[mult].items():
                out[(key, e)] = out.get((key, e), 0) + c * w
        return cls._trusted((dim, q), out)

    def hermite_coords(self) -> dict:
        """The inverse of from_hermite: {(J, m): c}, each component read
        through HermiteExpansion.from_poly."""
        items = ((key, HermiteExpansion.from_poly(p).coeffs) for key, p in self.items())
        return {(key, mult): c for key, coeffs in items for mult, c in coeffs.items()}

    def hermite_degrees(self) -> set[int]:
        return {sum(mult) for _, mult in self.hermite_coords()}


class GradedFock(NamedTuple):
    """Finite stack of symmetric blocks, graded by degree k."""

    dim: int
    parts: dict


def _label_multiplicities(label: MixedIndex, dim: int) -> tuple[int, ...]:
    return tuple(map(label.sym.count, range(1, dim + 1)))


def hermite_key(label: MixedIndex, ground) -> tuple:
    """The dictionary on one label: e_b goes to He_{mult(b)} dx_{b.alt},
    the Hermite coordinate keyed (b.alt, mult(b)), over R^d or R^len(mu)."""
    dim = len(ground) if isinstance(ground, tuple) else ground
    return label.alt, _label_multiplicities(label, dim)


def chaos_field(t: FockTensor) -> FormField:
    """Polynomial q-form of a mixed tensor, on R^d or on R^len(mu) for a
    pattern ground mu: wedge part becomes the key.  A degenerate block
    (k < 0, q < 0 or q > d) holds only zero, which goes to the zero form of
    the same degree q."""
    coords = {hermite_key(label, t.dim): c for label, c in t.coeffs.items()}
    dim = len(t.dim) if isinstance(t.dim, tuple) else t.dim
    return FormField.from_hermite(dim, t.q, coords)


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

    def coeff(label: MixedIndex) -> Fraction:
        mult = _label_multiplicities(label, d)
        return Fraction(prod(hi**a for hi, a in zip(hs, mult)), prod(map(factorial, mult)))

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
    as ((wedge key, multi-degree), coeff) pairs with distinct keys:

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
                yield (new, m[: i - 1] + (a - 1,) + m[i:]), sign * a
    else:
        for pos, j in enumerate(key):
            up = m[: j - 1] + (m[j - 1] + 1,) + m[j:]
            yield (key[:pos] + key[pos + 1 :], up), (-1) ** pos


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
    v = u if v is u else _as_form(v)
    u._check_same(v)
    coords = u.hermite_coords()  # read once when pairing a form with itself
    other = coords if v is u else v.hermite_coords()
    return dot(coords, other, lambda key: prod(map(factorial, key[1])))


def commutation_defect(h: Iterable, x: tuple[int, ...], order: int) -> FormField:
    """Mismatch of the two routes around the chaos square at one truncation.

    Route one: exterior_derivative of the chaos field of
    (truncated exponential vector of h) tensor (wedge x).  Route two: the
    chaos field of (same truncation) tensor (h wedge x).  Without
    truncation the two agree; truncating at `order` leaves a defect
    supported purely in Hermite degree `order`, the top chunk that route
    one differentiates away but route two keeps.  The defect is the sum
    over 1 <= |c| <= order + 1 of h^c _truncation_routes(order, c, x) /
    order!; only the sum is multiplied out.
    """
    hs = [as_coeff(c) for c in h]
    d = len(hs)
    if d < 1:
        raise DimensionMismatch("h must have at least one coordinate")
    if order < 1:
        raise DegreeOutOfRange(f"truncation order must be >= 1, got {order}")
    x = tuple(x)
    if any(not 1 <= i <= d for i in x) or any(a >= b for a, b in zip(x, x[1:])):
        raise InvalidIndex(f"x must be a strictly increasing tuple in 1..{d}")
    monomials = (_label_multiplicities(b, d)
                 for k in range(1, order + 2) for b in enum_basis(d, k, 0))
    out = lincomb((prod(map(pow, hs, c)), _truncation_routes(order, c, x)) for c in monomials)
    return FormField.from_hermite(d, len(x) + 1, out) / factorial(order)


@lru_cache(maxsize=None)
def _hermite_table_holds(n: int) -> bool:
    """E[He_a He_b] = a! delta_ab for a, b <= n, one variable.

    Computed from the monomial coefficients of He and the Gaussian
    moments E[x^m] = (m-1)!! (zero for odd m), never through from_poly.
    """

    def moment(m: int) -> int:
        return 0 if m % 2 else prod(range(m - 1, 0, -2))

    return all(
        sum(c * w * moment(e + f) for e, c in _he_coeffs(a) for f, w in _he_coeffs(b))
        == (factorial(a) if a == b else 0)
        for a in range(n + 1)
        for b in range(n + 1)
    )


@lru_cache(maxsize=None)
def _ladder_tables_hold(n: int) -> tuple[bool, bool, bool]:
    """(d, δ, Laplacian) ladders of the monomial-basis operators, on every
    form He_a(x_1) He_b(x_2) dx_J over R^2, a + b <= n and J a subset of {1, 2}:
    exterior_derivative and codifferential must give _hermite_image, and
    hodge_laplacian the eigenvalue a + b + |J|.  Each form is multiplied out
    by FormField.from_hermite, never read through from_poly.
    """
    d_ok, delta_ok, lap_ok = _ladder_tables_hold(n - 1) if n else (True, True, True)
    for a in range(n + 1):
        for key in ((), (1,), (2,), (1, 2)):
            q = len(key)
            f = FormField.from_hermite(2, q, {(key, (a, n - a)): 1})
            d_ok = d_ok and exterior_derivative(f) == FormField.from_hermite(
                2, q + 1, dict(_hermite_image("lower", key, (a, n - a)))
            )
            delta_ok = delta_ok and codifferential(f) == FormField.from_hermite(
                2, q - 1, dict(_hermite_image("raise", key, (a, n - a)))
            )
            lap_ok = lap_ok and hodge_laplacian(f) == f.scale(n + q)
    return d_ok, delta_ok, lap_ok


@lru_cache(maxsize=None)
def _chaos_pattern_holds(mu: tuple, k: int, q: int) -> tuple[bool, bool, bool, bool]:
    """(dictionary, isometry, d, δ): the one cached record of the Gaussian
    model on the block of mu, Gaussian facts only; it builds no form and
    reads no Fock operator.  chaos_field writes each label b on its own,
    as He_{mult(b)} dx_{b.alt}, and the tables of that product are checked
    once per degree (_hermite_table_holds, and _ladder_tables_hold, which
    _case_chaos ands in).  So the dictionary holds when hermite_key is
    injective on the labels, and the isometry when each _gram_factor(b) is
    prod mult(b)!, the norm that _hermite_table_holds(k) gives.  d holds
    when the shift (_hermite_image) gives the model's column of lower on
    each label, and δ likewise for raise_.  An empty block holds all four.
    """
    labels = enum_basis(mu, k, q)
    if not labels:
        return True, True, True, True
    keys = [hermite_key(b, mu) for b in labels]
    dictionary = len(set(keys)) == len(keys)
    isometry = (
        dictionary
        and _hermite_table_holds(k)
        and all(_gram_factor(b) == prod(map(factorial, m)) for b, (_, m) in zip(labels, keys))
    )

    def shift_holds(which, i):
        images = [hermite_key(b, mu) for b in enum_basis(mu, k + i, q - i)]
        return all(dict(_hermite_image(which, *key)) == {images[r]: v for r, v in c.items()}
                   for key, c in zip(keys, _model_images(which, mu, q)))

    return dictionary, isometry, shift_holds("lower", -1), shift_holds("raise", 1)


def _case_chaos(d: int, n: int, k: int):
    """The Gaussian model of H_{k,q}, proved exactly.

    Premise: exterior_derivative and codifferential act one coordinate at
    a time, with the shared wedge sign rule, so the ladder tables make them
    the shifts of _hermite_image.  The case ands the Gaussian records of
    H_{k,q}, H_{k-1,q+1} and H_{k+1,q-1} over the pattern blocks with the
    Fock dictionary entries (hodge._dictionary) of the same blocks:

    * diagram: d = lower on H_{k,q};
    * dual_diagram: δ = raise_ on H_{k,q};
    * the eigenvalue: δ d + d δ = B + A = n I (weitzenboeck_defect), with
      d = lower on H_{k+1,q-1} and δ = raise_ on H_{k-1,q+1};
    * adjoint: the diagram, δ = raise_ on H_{k-1,q+1}, the isometry on
      H_{k,q} and H_{k-1,q+1}, and the Fock adjointness G' L = (G R')^T.
    """
    q = n - k
    patterns = weight_patterns(d, n)
    # Built in this order: H_{k,q}, then the block below, then the one above.
    blocks = (map(all, zip(*(_chaos_pattern_holds(mu, k + i, q - i) for mu, _ in patterns)))
              for i in (0, -1, 1))
    here, iso, d_here, delta_here = next(blocks)
    below, iso_below, _, delta_below = next(blocks)
    above, _, d_above, _ = next(blocks)
    lower_here, raise_here, lower_above, raise_below = (
        all(_dictionary(which, mu, k + i, q - i) is None for mu, _ in patterns)
        for which, i in (("lower", 0), ("raise", 0), ("lower", 1), ("raise", -1))
    )
    ladder_d, ladder_delta, ladder_lap = _ladder_tables_hold(n)
    diagram = here and below and ladder_d and d_here and lower_here
    dual = here and above and ladder_delta and delta_here and raise_here
    eigen = (ladder_lap and d_above and lower_above and delta_below and raise_below
             and weitzenboeck_defect(d, k, q) == 0)
    dim = block_dim(d, k, q)
    details = {"dim": dim, "diagram": diagram, "dual_diagram": dual}
    details["laplacian_eigenvalue"] = str(n) if dim else "0"
    ok = diagram and dual and eigen
    if q == 0:
        details["isometry"] = iso
        ok = ok and iso
    if q + 1 <= d:
        adj = (diagram and iso and iso_below and ladder_delta and delta_below and raise_below
               and all(_adjoint_residual(mu, k, q) is None for mu, _ in patterns))
        details["adjoint"] = adj
        ok = ok and adj
    return ("pass" if ok else "fail"), details


def _truncation_classes(d: int, n: int):
    """One multi-index c over R^d per relabelling class, 1 <= |c| <= n + 1.

    Relabelling coordinates 2..d fixes dx_1 and commutes with both routes
    of the truncation square, so c = (c_1, nu), nu a partition of
    |c| - c_1 into at most d - 1 parts, padded with zeros, stands for its
    class.  Ordered by |c|, then c_1.
    """
    for size in range(1, n + 2):
        for c1 in range(size + 1):
            for nu in _partitions(size - c1, d - 1, size - c1):
                yield (c1, *nu) + (0,) * (d - 1 - len(nu))


def _truncation_routes(n: int, c: tuple[int, ...], x: tuple[int, ...]) -> dict:
    """n! times the coefficient of h^c, 1 <= |c| <= n + 1, in
    commutation_defect(h, x, n), in Hermite coordinates, zeros dropped:
    route one minus route two.

    The degree-|c| part of exp(h) puts h^c / c! on He_c.  Route one
    differentiates He_c dx_x, for |c| <= n only, through the shift
    _hermite_image("lower", ...); route two wedges h_i dx_i onto dx_x,
    so h^c collects n! / (c - e_i)! He_{c - e_i} dx_i ^ dx_x over i.
    """
    factor = factorial(n)
    one = dict(_hermite_image("lower", x, c)) if sum(c) <= n else {}
    two = {}
    for i, a in enumerate(c, start=1):
        ins = _wedge_insert(i, x) if a else None
        if ins is not None:
            sign, new = ins
            m = c[: i - 1] + (a - 1,) + c[i:]
            two[(new, m)] = sign * (factor // prod(map(factorial, m)))
    return lincomb(((factor // prod(map(factorial, c)), one), (-1, two)))


def _top_chunk(n: int, c: tuple[int, ...]) -> dict:
    """n! times the coefficient of h^c, |c| = n + 1, of the expected defect:
    the degree-n part of exp(h) tensored with h wedge e_1 puts
    n! / (c - e_i)! on He_{c - e_i} dx_1 ^ dx_i for each i >= 2 with c_i >= 1."""
    out = {}
    for i in range(2, len(c) + 1):
        if c[i - 1]:
            m = c[: i - 1] + (c[i - 1] - 1,) + c[i:]
            out[((1, i), m)] = factorial(n) // prod(map(factorial, m))
    return out


def _case_chaos_truncation(d: int, n: int, k: int):
    """The truncation square for every h, at x = e_1.

    Both routes are polynomials in h, so the case compares them
    coefficient by coefficient in Hermite coordinates, where equal forms
    have equal coordinates: on h^c with |c| <= n the routes agree (the
    d-ladder of the chaos suite's diagram), and on |c| = n + 1 their
    difference is the top chunk.  One c per relabelling class is checked.
    defect_degrees are the Hermite degrees of the computed differences;
    a failing case names its first c and the residual as a form, n! times
    the coefficient of h^c.
    """
    if d == 1:
        return "skip", {"reason": "no 2-form on R^1", "order": n}
    degrees: set[int] = set()
    failure = None
    for c in _truncation_classes(d, n):
        difference = _truncation_routes(n, c, (1,))
        degrees.update(sum(m) for _, m in difference)
        expected = _top_chunk(n, c) if sum(c) == n + 1 else {}
        residual = lincomb(((1, difference), (-1, expected)))
        if residual and failure is None:
            failure = {"c": list(c), "residual": FormField.from_hermite(d, 2, residual).render()}
    details = {"order": n, "defect_degrees": sorted(degrees), **(failure or {})}
    return ("fail" if failure else "pass"), details
