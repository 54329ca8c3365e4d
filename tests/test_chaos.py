"""Gaussian polynomial model: Hermite dictionary, derivatives, pairings."""

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import hodgefock.chaos as chaos
from hodgefock import (
    DegreeOutOfRange,
    DimensionMismatch,
    FockTensor,
    InvalidIndex,
    MixedIndex,
    chaos_field,
    codifferential,
    commutation_defect,
    enum_basis,
    exterior_derivative,
    gaussian_inner,
    hodge_laplacian,
    inner,
    lower,
    ornstein_uhlenbeck,
    raise_,
    random_tensor,
)
from hodgefock.chaos import (
    FormField,
    HermiteExpansion,
    Poly,
    exp_vector,
    hermite,
    hermite_key,
)
from hodgefock.cli import VerifyConfig, run_verify
from hodgefock.tensor_core import _gram_factor, sort_sign

import oracles
from conftest import clear_caches, coefficients, mixed_tensor_pairs, mixed_tensors
from conftest import pattern_tensors, relabel


HE_TABLE = {
    0: {(0,): 1},
    1: {(1,): 1},
    2: {(2,): 1, (0,): -1},
    3: {(3,): 1, (1,): -3},
    4: {(4,): 1, (2,): -6, (0,): 3},
    5: {(5,): 1, (3,): -10, (1,): 15},
    6: {(6,): 1, (4,): -15, (2,): 45, (0,): -15},
}


def test_hermite_values():
    for a in range(7):
        assert hermite(a).coeffs == HE_TABLE[a], a
    with pytest.raises(DegreeOutOfRange):
        hermite(-1)


def test_hermite_recurrence():
    x = Poly.variable(1, 1)
    for a in range(1, 8):
        assert hermite(a + 1) == x * hermite(a) - hermite(a - 1).scale(a)


def test_hermite_derivative_ladder():
    for a in range(1, 8):
        d_he = exterior_derivative(FormField(1, 0, {(): hermite(a)}))
        assert d_he.component((1,)) == hermite(a - 1).scale(a)


def test_poly_validation():
    with pytest.raises(InvalidIndex):
        Poly(2, {(1,): 1})
    with pytest.raises(InvalidIndex):
        Poly(2, {(-1, 0): 1})
    with pytest.raises(TypeError):
        Poly(2, {(1, 0): 0.5})
    assert Poly(2, {(1, 0): 0}).is_zero()


def test_poly_arithmetic_and_render():
    x1 = Poly.variable(2, 1)
    x2 = Poly.variable(2, 2)
    p = x1 * x1 - Poly.const(2, 1)
    assert p.coeffs == {(2, 0): 1, (0, 0): -1}
    assert exterior_derivative(FormField(2, 0, {(): x1 * x2})).component((2,)) == x1
    assert Poly(1, {(2,): 1, (0,): -1}).render() == "-1 + 1*x1^2"
    assert Poly.zero(1).render() == "0"
    with pytest.raises(TypeError):
        hash(p)


def test_hermite_expansion_roundtrip_and_x4():
    p4 = Poly(1, {(4,): 1})
    exp = HermiteExpansion.from_poly(p4)
    assert exp.coeffs == {(4,): 1, (2,): 6, (0,): 3}
    assert exp.to_poly() == p4
    mixed = Poly(2, {(3, 1): 2, (0, 2): -1, (0, 0): 5})
    assert HermiteExpansion.from_poly(mixed).to_poly() == mixed


def test_x_power_table_is_read_by_from_poly_alone(fresh_oracles, monkeypatch):
    # _x_power_in_he, x^m in the Hermite basis, is from_poly's table, and
    # only the round trip through monomials reads it.  With x^3 = He_3 +
    # 2 He_1 (one coefficient off) verify chaos still passes; the whole-block
    # oracle and the round trips fail.
    real = chaos._x_power_in_he
    monkeypatch.setattr(chaos, "_x_power_in_he", lambda m: ((1, 2), (3, 1)) if m == 3 else real(m))
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    clear_caches()
    oracles.chaos_block_holds.cache_clear()
    assert run_verify(VerifyConfig(suite="chaos", max_dim=3, max_n=4)).status == "pass"
    assert oracles.chaos_block_holds(2, 3, 0) == (False, False)
    with pytest.raises(AssertionError):
        test_hermite_expansion_roundtrip_and_x4()
    coords = {((1,), (3, 0)): 1}
    assert FormField.from_hermite(2, 1, coords).hermite_coords() != coords


def test_chaos_poly_example():
    # The polynomial of a purely symmetric tensor is the 0-form component
    # of its chaos field.
    t = FockTensor.basis(2, MixedIndex((1, 1), ()))
    assert chaos_field(t).component(()).coeffs == {(2, 0): 1, (0, 0): -1}
    pair = FockTensor.basis(2, MixedIndex((1, 2), ()))
    assert chaos_field(pair).component(()).coeffs == {(1, 1): 1}
    assert chaos_field(FockTensor.basis(2, MixedIndex((1,), (2,)))).component(()).is_zero()
    assert chaos_field(FockTensor(2, -1, 0)).component(()).is_zero()


def test_chaos_field_example():
    t = FockTensor.basis(2, MixedIndex((1,), (2,)))
    u = chaos_field(t)
    assert u.q == 1
    assert u.component((2,)).coeffs == {(1, 0): 1}
    assert u.component((1,)).is_zero()
    assert chaos_field(FockTensor(2, 1, 3)).is_zero()
    # a degenerate block goes to the zero form of the same degree
    for k, q in ((1, 3), (0, 3), (1, -1), (-1, 0)):
        assert chaos_field(FockTensor.zero(2, k, q)) == FormField.zero(2, q)


def test_form_field_validation():
    with pytest.raises(InvalidIndex):
        FormField(2, 1, {(1, 2): Poly.const(2, 1)})
    with pytest.raises(InvalidIndex):
        FormField(2, 1, {(3,): Poly.const(2, 1)})
    with pytest.raises(InvalidIndex):
        FormField(2, 2, {(2, 1): Poly.const(2, 1)})
    with pytest.raises(TypeError):
        hash(FormField.zero(2, 1))
    # off either end of the complex only the zero form exists
    for q, key in ((-1, ()), (3, (1, 2))):
        assert FormField(2, q).is_zero() and FormField(2, q) == FormField.zero(2, q)
        with pytest.raises(InvalidIndex):
            FormField(2, q, {key: Poly.const(2, 1)})


def test_exterior_derivative_signs():
    # d(f) = sum_i (df/dx_i) e_i on functions
    f = FormField(2, 0, {(): Poly(2, {(1, 1): 1})})
    df = exterior_derivative(f)
    assert df.component((1,)).coeffs == {(0, 1): 1}
    assert df.component((2,)).coeffs == {(1, 0): 1}
    # inserting ahead of an existing slot flips the sign
    u = FormField(2, 1, {(2,): Poly(2, {(1, 0): 1})})
    du = exterior_derivative(u)
    assert du.component((1, 2)).coeffs == {(0, 0): 1}
    v = FormField(2, 1, {(1,): Poly(2, {(0, 1): 1})})
    dv = exterior_derivative(v)
    assert dv.component((1, 2)).coeffs == {(0, 0): -1}


def test_exterior_derivative_squares_to_zero():
    p = Poly(3, {(2, 1, 0): 1, (0, 0, 3): -2})
    f = FormField(3, 0, {(): p})
    assert exterior_derivative(exterior_derivative(f)).is_zero()


def test_codifferential_examples():
    he2 = Poly(2, {(2, 0): 1, (0, 0): -1})
    u = FormField(2, 1, {(1,): he2})
    assert codifferential(u).component(()).coeffs == {(3, 0): 1, (1, 0): -3}
    w = FormField(2, 2, {(1, 2): Poly.const(2, 1)})
    dw = codifferential(w)
    assert dw.component((1,)).coeffs == {(0, 1): -1}
    assert dw.component((2,)).coeffs == {(1, 0): 1}
    # a 0-form has no wedge slot: its image is the zero (-1)-form
    f = FormField(2, 0, {(): he2})
    assert codifferential(f) == FormField.zero(2, -1)


def test_codifferential_squares_to_zero():
    w = FormField(3, 2, {(1, 2): Poly(3, {(1, 0, 1): 2}), (1, 3): Poly(3, {(0, 2, 0): 1})})
    assert codifferential(codifferential(w)).is_zero()


def test_ornstein_uhlenbeck_values():
    x1 = Poly.variable(2, 1)
    assert ornstein_uhlenbeck(x1 * x1).coeffs == {(2, 0): 2, (0, 0): -2}
    assert ornstein_uhlenbeck(Poly.const(2, 3)).is_zero()


def test_ornstein_uhlenbeck_is_hermite_diagonal():
    for a in range(6):
        p = Poly(1, dict(hermite(a).coeffs))
        assert ornstein_uhlenbeck(p) == p.scale(a)
    mixed = Poly(2, {(2, 0): 1, (0, 0): -1}) * Poly(2, {(0, 1): 1})
    assert ornstein_uhlenbeck(mixed) == mixed.scale(3)


@given(mixed_tensors(max_dim=3, max_n=4, min_q=1))
def test_diagram_lower_route(t):
    assert exterior_derivative(chaos_field(t)) == chaos_field(lower(t))


@given(mixed_tensors(max_dim=3, max_n=4, min_q=1))
def test_diagram_raise_route(t):
    assert codifferential(chaos_field(t)) == chaos_field(raise_(t))


def _hermite_coords(form):
    return {
        (key, mult): c
        for key, p in form.items()
        for mult, c in HermiteExpansion.from_poly(p).coeffs.items()
    }


@st.composite
def coordinates(draw, dim, q):
    """A few nonzero coefficients keyed (wedge key, multi-degree) for a
    q-form on R^dim; used both as Hermite and as monomial coordinates."""
    keys = st.sampled_from(list(combinations(range(1, dim + 1), q)))
    degrees = st.tuples(*[st.integers(0, 3)] * dim)
    return draw(st.dictionaries(st.tuples(keys, degrees), coefficients, max_size=5))


def _by_component(coords) -> dict:
    comps: dict = {}
    for (key, m), c in coords.items():
        comps.setdefault(key, {})[m] = c
    return comps


@st.composite
def form_pairs(draw):
    """Two forms of one (dim, q), built component by component, whose wedge
    keys differ in general."""
    dim = draw(st.integers(1, 3))
    q = draw(st.integers(0, dim))
    return tuple(
        FormField(dim, q, {key: Poly(dim, p) for key, p in _by_component(coords).items()})
        for coords in (draw(coordinates(dim, q)), draw(coordinates(dim, q)))
    )


@st.composite
def hermite_forms(draw):
    dim = draw(st.integers(1, 3))
    q = draw(st.integers(0, dim))
    return dim, q, draw(coordinates(dim, q))


@given(form_pairs())
def test_hermite_coords_reads_each_component_through_from_poly(pair):
    for f in pair:
        assert f.hermite_coords() == _hermite_coords(f)


@given(hermite_forms())
def test_from_hermite_is_to_poly_on_each_component(case):
    dim, q, coords = case
    comps = {
        key: HermiteExpansion(dim, he).to_poly() for key, he in _by_component(coords).items()
    }
    assert FormField.from_hermite(dim, q, coords) == FormField(dim, q, comps)


@given(hermite_forms(), form_pairs())
def test_from_hermite_and_hermite_coords_are_inverse(case, pair):
    dim, q, coords = case
    assert FormField.from_hermite(dim, q, coords).hermite_coords() == coords
    for f in pair:
        assert FormField.from_hermite(f.dim, f.q, f.hermite_coords()) == f


def _gaussian_inner_per_component(u, v):
    """The component-by-component pairing: E[f_J g_J] from the Hermite
    expansions of the two J components, summed over the keys of u."""
    u, v = (FormField(f.dim, 0, {(): f}) if isinstance(f, Poly) else f for f in (u, v))
    v_comps = dict(v.items())
    total = Fraction(0)
    for key, f in u.items():
        g = v_comps.get(key)
        if g is not None:
            fe = HermiteExpansion.from_poly(f).coeffs
            ge = HermiteExpansion.from_poly(g).coeffs
            total += sum(c * ge.get(a, 0) * prod(map(factorial, a)) for a, c in fe.items())
    return total


@given(form_pairs())
def test_gaussian_inner_agrees_with_the_per_component_pairing(pair):
    u, v = pair
    got = gaussian_inner(u, v)
    assert isinstance(got, Fraction)
    assert got == _gaussian_inner_per_component(u, v)
    if u.q == 0:
        p, r = u.component(()), v.component(())
        assert gaussian_inner(p, r) == _gaussian_inner_per_component(p, r)


@pytest.mark.parametrize("which, op", [("lower", exterior_derivative), ("raise", codifferential)])
def test_hermite_matrix_columns_are_the_operator_on_each_label(which, op):
    # Column b, read through hermite_key, is the Hermite expansion of the
    # monomial-basis operator on the chaos field of e_b: the shift rule
    # holds over R^d, not only on the two-variable ladder table.
    for d in (1, 2, 3):
        for k in range(4):
            for q in range(d + 1):
                m = oracles.hermite_matrix(which, d, k, q)
                cod = enum_basis(*m.cod_sig)
                for b, col in zip(enum_basis(d, k, q), m.columns()):
                    got = {hermite_key(cod[r], d): v for r, v in col.items()}
                    want = _hermite_coords(op(chaos_field(FockTensor.basis(d, b))))
                    assert got == want, (which, b)
    with pytest.raises(InvalidIndex):
        oracles.hermite_matrix("grad", 2, 1, 1)


@given(mixed_tensors(max_dim=3, max_n=4))
def test_laplacian_eigenvalue_is_total_degree(t):
    u = chaos_field(t)
    assert hodge_laplacian(u) == u.scale(t.k + t.q)


def test_laplacian_weitzenboeck_on_general_forms():
    comps = {
        (1,): Poly(3, {(2, 0, 0): 1, (0, 1, 1): -2}),
        (3,): Poly(3, {(1, 1, 0): 3, (0, 0, 0): 1}),
    }
    u = FormField(3, 1, comps)
    expected = FormField.zero(3, 1)
    for key, p in u.items():
        expected = expected + FormField(3, 1, {key: ornstein_uhlenbeck(p) + p})
    assert hodge_laplacian(u) == expected


def test_gaussian_inner_hermite_orthogonality():
    from math import factorial

    for a in range(5):
        for b in range(5):
            pa = Poly(1, dict(hermite(a).coeffs))
            pb = Poly(1, dict(hermite(b).coeffs))
            want = factorial(a) if a == b else 0
            assert gaussian_inner(pa, pb) == want, (a, b)


def test_expectation_moments():
    # The Gaussian mean E[p] is the pairing of p with the constant 1.
    x = Poly.variable(1, 1)
    one = p = Poly.const(1, 1)
    moments = {2: 1, 4: 3, 6: 15, 8: 105}
    for m in range(1, 9):
        p = p * x
        if m in moments:
            assert gaussian_inner(p, one) == moments[m]
        elif m % 2 == 1:
            assert gaussian_inner(p, one) == 0
    assert gaussian_inner(Poly.const(1, Fraction(7, 3)), one) == Fraction(7, 3)


@given(mixed_tensor_pairs(max_dim=3, max_n=4))
def test_gaussian_pairing_is_isometric(pair):
    t, u = pair
    assert gaussian_inner(chaos_field(t), chaos_field(u)) == inner(t, u)


def test_adjointness_of_derivative_and_codifferential():
    import random

    rng = random.Random(9)
    for q in (0, 1):
        for _ in range(4):
            t = random_tensor(3, 2, q, rng)
            s = random_tensor(3, 1, q + 1, rng)
            u = chaos_field(t)
            v = chaos_field(s)
            assert gaussian_inner(exterior_derivative(u), v) == gaussian_inner(u, codifferential(v))


def test_exp_vector_parts():
    g = exp_vector((2, 3), 3)
    assert max(g.parts) == 3
    assert g.parts[0].coeffs == {MixedIndex((), ()): 1}
    assert g.parts[1].coeffs == {MixedIndex((1,), ()): 2, MixedIndex((2,), ()): 3}
    assert g.parts[2].coeffs == {
        MixedIndex((1, 1), ()): 2,
        MixedIndex((1, 2), ()): 6,
        MixedIndex((2, 2), ()): Fraction(9, 2),
    }
    assert g.parts[3].coeffs == {
        MixedIndex((1, 1, 1), ()): Fraction(4, 3),
        MixedIndex((1, 1, 2), ()): 6,
        MixedIndex((1, 2, 2), ()): 9,
        MixedIndex((2, 2, 2), ()): Fraction(9, 2),
    }
    assert 4 not in g.parts
    z = exp_vector((0, 3), 2)
    assert z.parts[1].coeffs == {MixedIndex((2,), ()): 3}
    assert z.parts[2].coeffs == {MixedIndex((2, 2), ()): Fraction(9, 2)}


def test_commutation_defect_frozen_example():
    cd = commutation_defect((0, 1), (1,), 2)
    assert cd.q == 2
    assert cd.component((1, 2)).coeffs == {(0, 2): Fraction(1, 2), (0, 0): Fraction(-1, 2)}
    assert cd.hermite_degrees() == {2}


def test_commutation_defect_edge_cases():
    assert commutation_defect((0, 0), (1,), 3).is_zero()
    assert commutation_defect((2,), (1,), 3).is_zero()
    with pytest.raises(DegreeOutOfRange):
        commutation_defect((1,), (1,), 0)
    with pytest.raises(DimensionMismatch):
        commutation_defect((), (1,), 2)
    with pytest.raises(InvalidIndex):
        commutation_defect((1, 2), (2, 1), 3)
    with pytest.raises(InvalidIndex):
        commutation_defect((1, 2), (3,), 3)


@given(
    st.lists(st.integers(-2, 2), min_size=2, max_size=3),
    st.integers(1, 3),
)
def test_commutation_defect_lives_at_the_truncation_order(h, order):
    cd = commutation_defect(h, (1,), order)
    assert cd.hermite_degrees() <= {order}


@st.composite
def truncations(draw):
    """(h, x, order): h on R^d, d <= 4, zeros and fractions included; x a
    wedge key of length 1 or 2; order <= 4."""
    d = draw(st.integers(1, 4))
    h = draw(st.lists(st.one_of(st.integers(-3, 3), coefficients), min_size=d, max_size=d))
    x = draw(st.lists(st.integers(1, d), min_size=1, max_size=min(2, d), unique=True))
    return h, tuple(sorted(x)), draw(st.integers(1, 4))


@given(truncations())
@example(([0], (1,), 3))
@example(([2], (1,), 4))
@example(([0, 0, 1], (1, 3), 4))
def test_commutation_defect_equals_the_monomial_route(case):
    h, x, order = case
    assert commutation_defect(h, x, order) == oracles.commutation_defect(h, x, order)


# The premise of the per-pattern Gaussian model: relabelling the ground
# basis by an injective map f of indices commutes with chaos_field,
# FormField.hermite_coords, gaussian_inner and _gram_factor, up to the sign
# that sorts the wedge key.  A form's monomial and Hermite coordinates are
# both keyed (wedge key, exponent tuple), and f moves the two alike.  So
# the dictionary and the isometry on the block of each pattern mu over
# R^len(mu) give them on every weight block of H_{k,q} over R^d.


def _relabel_coords(coords, f, d):
    """{(J, e): c} with J relabelled by f and sorted with its sign, and the
    exponent of x_i moved to x_f(i), over R^d."""
    out = {}
    for (key, e), c in coords.items():
        sign, image = sort_sign(tuple(f(j) for j in key))
        moved = [0] * d
        for i, m in enumerate(e, start=1):
            moved[f(i) - 1] = m
        out[(image, tuple(moved))] = sign * c
    return out


def _gaussian_model_commutes(t, s, f, d):
    u, v = chaos_field(t), chaos_field(s)
    u_f = FormField._trusted((d, t.q), _relabel_coords(u.coeffs, f, d))
    assert chaos_field(relabel(t, f, d)) == u_f
    assert u_f.hermite_coords() == _relabel_coords(u.hermite_coords(), f, d)
    assert gaussian_inner(u_f, chaos_field(relabel(s, f, d))) == gaussian_inner(u, v)
    for label in t.coeffs:
        image = relabel(FockTensor._trusted(t.shape(), {label: 1}), f, d)
        assert [_gram_factor(b) for b in image.coeffs] == [_gram_factor(label)]


@given(mixed_tensor_pairs(max_dim=4))
def test_adjacent_transpositions_commute_with_the_gaussian_model(pair):
    t, s = pair
    for i in range(1, t.dim):
        swap = {i: i + 1, i + 1: i}
        _gaussian_model_commutes(t, s, lambda j: swap.get(j, j), t.dim)


@given(pattern_tensors(max_dim=4), st.data())
def test_pattern_blocks_of_the_gaussian_model_embed_into_every_ground(pair, data):
    t, d = pair
    labels = enum_basis(*t.shape())
    chosen = data.draw(st.lists(st.sampled_from(labels), max_size=4)) if labels else []
    s = FockTensor._trusted(t.shape(), {b: data.draw(coefficients) for b in chosen})
    r = len(t.dim)
    image = sorted(data.draw(st.lists(st.integers(1, d), min_size=r, max_size=r, unique=True)))
    _gaussian_model_commutes(t, s, lambda j: image[j - 1], d)
