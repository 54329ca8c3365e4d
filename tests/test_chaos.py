"""Gaussian polynomial model: Hermite dictionary, derivatives, pairings."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from hodgefock import (
    DegreeOutOfRange,
    FockTensor,
    InvalidIndex,
    MixedIndex,
    chaos_field,
    chaos_poly,
    codifferential,
    commutation_defect,
    enum_basis,
    expectation,
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
    hermite_matrix,
)

from conftest import mixed_tensor_pairs, mixed_tensors


HE_TABLE = {
    0: {(0,): 1},
    1: {(1,): 1},
    2: {(2,): 1, (0,): -1},
    3: {(3,): 1, (1,): -3},
    4: {(4,): 1, (2,): -6, (0,): 3},
    5: {(5,): 1, (3,): -10, (1,): 15},
    6: {(6,): 1, (4,): 45, (2,): -15, (0,): -15},
}


def test_hermite_values():
    for a in range(6):
        assert hermite(a).coeffs == HE_TABLE[a], a
    assert hermite(6).coeffs == {(6,): 1, (4,): -15, (2,): 45, (0,): -15}
    with pytest.raises(DegreeOutOfRange):
        hermite(-1)


def test_hermite_recurrence():
    x = Poly.variable(1, 1)
    for a in range(1, 8):
        assert hermite(a + 1) == x * hermite(a) - hermite(a - 1).scale(a)


def test_hermite_derivative_ladder():
    for a in range(1, 8):
        assert hermite(a).diff(1) == hermite(a - 1).scale(a)


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
    assert (x1 * x2).diff(2) == x1
    assert p.degree() == 2
    assert Poly.zero(2).degree() == -1
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


def test_chaos_poly_example():
    t = FockTensor.basis(2, MixedIndex((1, 1), ()))
    assert chaos_poly(t).coeffs == {(2, 0): 1, (0, 0): -1}
    pair = FockTensor.basis(2, MixedIndex((1, 2), ()))
    assert chaos_poly(pair).coeffs == {(1, 1): 1}
    with pytest.raises(DegreeOutOfRange):
        chaos_poly(FockTensor.basis(2, MixedIndex((1,), (2,))))
    assert chaos_poly(FockTensor(2, -1, 0)).is_zero()


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


@pytest.mark.parametrize("which, op", [("lower", exterior_derivative), ("raise", codifferential)])
def test_hermite_matrix_columns_are_the_operator_on_each_label(which, op):
    # Column b, read through hermite_key, is the Hermite expansion of the
    # monomial-basis operator on the chaos field of e_b: the shift rule
    # holds over R^d, not only on the two-variable ladder table.
    for d in (1, 2, 3):
        for k in range(4):
            for q in range(d + 1):
                m = hermite_matrix(which, d, k, q)
                cod = enum_basis(*m.cod_sig)
                for b, col in zip(enum_basis(d, k, q), m.columns()):
                    got = {hermite_key(cod[r], d): v for r, v in col.items()}
                    want = _hermite_coords(op(chaos_field(FockTensor.basis(d, b))))
                    assert got == want, (which, b)
    with pytest.raises(InvalidIndex):
        hermite_matrix("grad", 2, 1, 1)


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
    x = Poly.variable(1, 1)
    p = Poly.const(1, 1)
    moments = {2: 1, 4: 3, 6: 15, 8: 105}
    for m in range(1, 9):
        p = p * x
        if m in moments:
            assert expectation(p) == moments[m]
        elif m % 2 == 1:
            assert expectation(p) == 0
    assert expectation(Poly.const(1, Fraction(7, 3))) == Fraction(7, 3)


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
    assert g.order() == 3
    assert g.part(0).coeffs == {MixedIndex((), ()): 1}
    assert g.part(1).coeffs == {MixedIndex((1,), ()): 2, MixedIndex((2,), ()): 3}
    assert g.part(2).coeffs == {
        MixedIndex((1, 1), ()): 2,
        MixedIndex((1, 2), ()): 6,
        MixedIndex((2, 2), ()): Fraction(9, 2),
    }
    assert g.part(3).coeffs == {
        MixedIndex((1, 1, 1), ()): Fraction(4, 3),
        MixedIndex((1, 1, 2), ()): 6,
        MixedIndex((1, 2, 2), ()): 9,
        MixedIndex((2, 2, 2), ()): Fraction(9, 2),
    }
    assert g.part(4).is_zero()
    z = exp_vector((0, 3), 2)
    assert z.part(1).coeffs == {MixedIndex((2,), ()): 3}
    assert z.part(2).coeffs == {MixedIndex((2, 2), ()): Fraction(9, 2)}


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
