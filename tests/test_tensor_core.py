"""Basis enumeration, embedding, projection and the exact pairing."""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial

import pytest
from hypothesis import given

import hodgefock as hf
from hodgefock import (
    DegreeOutOfRange,
    DimensionMismatch,
    FockTensor,
    FullTensor,
    InvalidIndex,
    MixedIndex,
    block_dim,
    embed,
    enum_basis,
    inner,
)

from conftest import full_tensors, mixed_tensor_pairs, mixed_tensors
from oracles import alt_subset, inner_full, project_mixed, sym_subset


def test_enum_basis_matches_product_enumeration():
    for d in range(1, 5):
        for k in range(4):
            for q in range(d + 1):
                expected = [
                    MixedIndex(s, a)
                    for s in combinations_with_replacement(range(1, d + 1), k)
                    for a in combinations(range(1, d + 1), q)
                ]
                got = enum_basis(d, k, q)
                assert got == expected
                assert len(got) == comb(d + k - 1, k) * comb(d, q) == block_dim(d, k, q)


def test_enum_basis_degenerate_degrees_are_empty():
    assert enum_basis(2, -1, 1) == []
    assert enum_basis(2, 1, 3) == []
    assert enum_basis(2, 1, -1) == []
    assert block_dim(2, -1, 1) == 0
    assert block_dim(2, 1, 3) == 0


def test_enum_basis_rejects_bad_dimension():
    with pytest.raises(DimensionMismatch):
        enum_basis(0, 1, 1)


@pytest.mark.parametrize("d", [0, -1])
def test_block_counts_refuse_a_ground_below_one(d):
    # Over R^0 or less there is no block to count: each of these refuses
    # the ground as enum_basis does, instead of a ValueError from math, a
    # zero count, or a vacuous pass.
    calls = [
        (block_dim, (d, 0, 0)),
        (block_dim, (d, 1, 0)),
        (hf.weight_patterns, (d, 3)),
        (hf.weitzenboeck_defect, (d, 1, 1)),
        (hf.weitzenboeck_defect, (d, 0, 0)),
        (hf.decomposition_dims, (d, 1, 1)),
        (hf.exactness_report, (d, 2)),
    ]
    for fn, args in calls:
        with pytest.raises(DimensionMismatch):
            fn(*args)


def test_empty_signature_has_the_vacuum_label():
    assert enum_basis(3, 0, 0) == [MixedIndex((), ())]
    assert block_dim(3, 0, 0) == 1


def test_label_canonical_form_enforced():
    with pytest.raises(InvalidIndex):
        FockTensor(2, 2, 0, {MixedIndex((2, 1), ()): 1})
    with pytest.raises(InvalidIndex):
        FockTensor(2, 0, 2, {MixedIndex((), (2, 2)): 1})
    with pytest.raises(InvalidIndex):
        FockTensor(2, 0, 2, {MixedIndex((), (2, 1)): 1})
    with pytest.raises(InvalidIndex):
        FockTensor(2, 1, 1, {MixedIndex((3,), (1,)): 1})
    with pytest.raises(InvalidIndex):
        FockTensor(2, 1, 1, {MixedIndex((1,), ()): 1})


def test_float_coefficients_refused():
    with pytest.raises(TypeError):
        FockTensor(2, 1, 0, {MixedIndex((1,), ()): 0.5})
    with pytest.raises(TypeError):
        FullTensor(2, 1, {(1,): 1e-3})
    t = FockTensor.basis(2, MixedIndex((1,), ()))
    with pytest.raises(TypeError):
        t.scale(0.5)


def test_degenerate_signature_only_holds_zero():
    z = FockTensor.zero(2, -1, 2)
    assert z.is_zero()
    assert z.signature == (2, -1, 2)
    with pytest.raises(DegreeOutOfRange):
        FockTensor(2, -1, 2, {MixedIndex((), (1, 2)): 1})


def test_tensor_arithmetic_is_exact():
    b1 = MixedIndex((1,), (2,))
    b2 = MixedIndex((2,), (1,))
    t = FockTensor(2, 1, 1, {b1: Fraction(1, 3), b2: 2})
    u = FockTensor(2, 1, 1, {b1: Fraction(2, 3)})
    assert (t + u).coeffs == {b1: 1, b2: 2}
    assert (t - t).is_zero()
    assert (-t).coeffs == {b1: Fraction(-1, 3), b2: -2}
    assert (t * 3).coeffs == {b1: 1, b2: 6}
    assert (t / 2).coeffs == {b1: Fraction(1, 6), b2: 1}
    assert t.scale(0).is_zero()
    assert 2 * t == t * 2


def test_mismatched_signatures_refuse_to_add():
    t = FockTensor.basis(2, MixedIndex((1,), ()))
    u = FockTensor.basis(2, MixedIndex((), (1,)))
    with pytest.raises(DimensionMismatch):
        t + u


def test_tensor_is_not_hashable():
    t = FockTensor.basis(2, MixedIndex((1,), ()))
    with pytest.raises(TypeError):
        hash(t)
    with pytest.raises(TypeError):
        hash(FullTensor(2, 1, {(1,): 1}))


def test_render_is_stable():
    t = FockTensor(
        3, 2, 2, {MixedIndex((1, 1), (2, 3)): Fraction(3, 2), MixedIndex((1, 2), (1, 3)): -1}
    )
    assert t.render() == "3/2*(1,1;2,3) + -1*(1,2;1,3)"
    assert FockTensor.zero(3, 2, 2).render() == "0"
    assert MixedIndex((), (1, 2)).render() == "(;1,2)"
    assert FullTensor(2, 2, {(2, 1): 2}).render() == "2*(2,1)"


def test_embed_examples():
    assert embed(FockTensor.basis(2, MixedIndex((1,), (2,)))).coeffs == {(1, 2): 1}
    assert embed(FockTensor.basis(2, MixedIndex((), (1, 2)))).coeffs == {
        (1, 2): 1,
        (2, 1): -1,
    }
    assert embed(FockTensor.basis(3, MixedIndex((1, 2), (3,)))).coeffs == {
        (1, 2, 3): 1,
        (2, 1, 3): 1,
    }
    assert embed(FockTensor.basis(3, MixedIndex((1, 1), (2, 3)))).coeffs == {
        (1, 1, 2, 3): 2,
        (1, 1, 3, 2): -2,
    }


def test_embed_refuses_degenerate_signature():
    with pytest.raises(DegreeOutOfRange):
        embed(FockTensor.zero(2, -1, 2))


def test_project_examples():
    # the sym part keeps multiplicity, the alt part sorts with a sign
    assert project_mixed(FullTensor(2, 3, {(1, 1, 2): 1}), 1).coeffs == {
        MixedIndex((1,), (1, 2)): 1
    }
    assert project_mixed(FullTensor(2, 2, {(2, 1): 1}), 0).coeffs == {
        MixedIndex((), (1, 2)): -1
    }
    # repeated entries in the alt slots die
    assert project_mixed(FullTensor(2, 2, {(1, 1): 1}), 0).is_zero()
    # sym slots never reorder away: (2,1) with k=2 canonicalizes to (1,2)
    assert project_mixed(FullTensor(2, 2, {(2, 1): 1}), 2).coeffs == {
        MixedIndex((1, 2), ()): 1
    }


def test_project_degree_out_of_range():
    with pytest.raises(InvalidIndex):
        project_mixed(FullTensor(2, 2, {(1, 2): 1}), 3)
    with pytest.raises(InvalidIndex):
        project_mixed(FullTensor(2, 2, {(1, 2): 1}), -1)


def test_project_embed_roundtrip_is_factorial_scaling():
    for d, k, q in [(1, 2, 1), (2, 1, 1), (2, 2, 2), (3, 1, 2), (3, 3, 1), (2, 0, 2), (3, 2, 0)]:
        scale = factorial(k) * factorial(q)
        for b in enum_basis(d, k, q):
            t = FockTensor.basis(d, b)
            assert project_mixed(embed(t), k) == t * scale


@given(full_tensors(max_dim=2, max_n=4))
def test_project_ignores_prior_averaging(t):
    """Canonical rewriting already contains the symmetrizations."""
    for k in range(t.n + 1):
        avg = alt_subset(sym_subset(t, range(1, k + 1)), range(k + 1, t.n + 1))
        assert project_mixed(t, k) == project_mixed(avg, k)


def _delta_gram(left: tuple, right: tuple) -> list:
    return [[1 if a == b else 0 for b in right] for a in left]


def _permanent(m: list):
    size = len(m)
    if size == 0:
        return 1
    return sum(
        _prod(m[i][p[i]] for i in range(size)) for p in permutations(range(size))
    )


def _determinant(m: list):
    size = len(m)
    if size == 0:
        return 1
    total = 0
    for p in permutations(range(size)):
        sign = hf.tensor_core.perm_sign(tuple(x + 1 for x in p))
        total += sign * _prod(m[i][p[i]] for i in range(size))
    return total


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_inner_matches_permanent_times_determinant():
    for d, k, q in [(2, 2, 1), (3, 1, 2), (2, 3, 0), (3, 2, 2)]:
        for b in enum_basis(d, k, q):
            for c in enum_basis(d, k, q):
                expected = _permanent(_delta_gram(b.sym, c.sym)) * _determinant(
                    _delta_gram(b.alt, c.alt)
                )
                got = inner(FockTensor.basis(d, b), FockTensor.basis(d, c))
                assert got == expected, (b, c)


def test_inner_diagonal_values():
    assert inner(
        FockTensor.basis(3, MixedIndex((1, 1, 1), ())),
        FockTensor.basis(3, MixedIndex((1, 1, 1), ())),
    ) == 6
    assert inner(
        FockTensor.basis(3, MixedIndex((1, 1, 2), (3,))),
        FockTensor.basis(3, MixedIndex((1, 1, 2), (3,))),
    ) == 2
    assert inner(
        FockTensor.basis(2, MixedIndex((1,), (2,))),
        FockTensor.basis(2, MixedIndex((2,), (1,))),
    ) == 0


@given(mixed_tensor_pairs())
def test_inner_agrees_with_embedded_pairing(pair):
    t, u = pair
    scale = factorial(t.k) * factorial(t.q)
    assert inner(t, u) * scale == inner_full(embed(t), embed(u))


def test_inner_refuses_mismatched_blocks():
    t = FockTensor.basis(2, MixedIndex((1,), ()))
    u = FockTensor.basis(2, MixedIndex((), (1,)))
    with pytest.raises(DimensionMismatch):
        inner(t, u)


@given(mixed_tensors())
def test_inner_is_positive_definite(t):
    value = inner(t, t)
    assert value >= 0
    assert (value == 0) == t.is_zero()


@given(mixed_tensors())
def test_inner_is_symmetric(t):
    u = t.scale(Fraction(2, 3))
    assert inner(t, u) == inner(u, t)
