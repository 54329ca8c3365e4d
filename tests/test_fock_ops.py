"""Slot permutations, the two interchange operators, and their matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import hodgefock as hf
from hodgefock import (
    FockTensor,
    FullTensor,
    InvalidIndex,
    LinearMap,
    MixedIndex,
    Permutation,
    embed,
    gram_matrix,
    lower,
    operator_matrix,
    permute,
    raise_,
)
from hodgefock.linalg import matrix_rank
from hodgefock.tensor_core import _gram_factor, weight_patterns

from conftest import full_tensors, mixed_tensors, pattern_tensors, relabel
from oracles import alt_subset, hermite_matrix, sym_subset, symmetric_group, transposition_sum


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    r = Permutation((2, 1, 3))
    assert (r * p)(1) == r(p(1)) == 1
    assert (r * p).images == (1, 3, 2)
    assert p.inverse() * p == Permutation.identity(3)
    assert p.sign() == 1 and r.sign() == -1
    assert Permutation.transposition(4, 2, 4).images == (1, 4, 3, 2)
    assert len(list(symmetric_group(3))) == 6


def test_permutation_rejects_non_bijections():
    with pytest.raises(InvalidIndex):
        Permutation((1, 1, 2))
    with pytest.raises(InvalidIndex):
        Permutation((0, 1))


def test_permute_moves_slots():
    t = FullTensor(2, 2, {(1, 2): 1})
    swapped = permute(t, Permutation.transposition(2, 1, 2))
    assert swapped.coeffs == {(2, 1): 1}


@given(full_tensors(max_dim=2, max_n=3), st.permutations(range(1, 4)), st.permutations(range(1, 4)))
def test_permute_is_an_action(t, pi, ri):
    if t.n != 3:
        t = FullTensor(t.dim, 3, {(k + (1,) * (3 - t.n))[:3]: c for k, c in t.coeffs.items()})
    p, r = Permutation(tuple(pi)), Permutation(tuple(ri))
    assert permute(permute(t, p), r) == permute(t, r * p)
    assert permute(t, Permutation.identity(3)) == t


def test_subset_symmetrizers():
    t = FullTensor(2, 2, {(1, 2): 1})
    assert sym_subset(t, (1, 2)).coeffs == {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}
    assert alt_subset(t, (1, 2)).coeffs == {(1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}
    assert alt_subset(FullTensor(2, 2, {(1, 1): 1}), (1, 2)).is_zero()
    assert sym_subset(t, ()) == t
    assert alt_subset(t, (2,)) == t
    with pytest.raises(InvalidIndex):
        sym_subset(t, (0, 1))
    with pytest.raises(InvalidIndex):
        alt_subset(t, (1, 1))


@given(full_tensors(max_dim=2, max_n=4))
def test_subset_symmetrizers_are_idempotent(t):
    positions = tuple(range(1, min(t.n, 3) + 1))
    s = sym_subset(t, positions)
    a = alt_subset(t, positions)
    assert sym_subset(s, positions) == s
    assert alt_subset(a, positions) == a
    assert alt_subset(s, positions) == (s if len(positions) < 2 else s - s)


def test_lower_examples():
    assert lower(FockTensor.basis(2, MixedIndex((1,), (2,)))).coeffs == {
        MixedIndex((), (1, 2)): 1
    }
    assert lower(FockTensor.basis(2, MixedIndex((2,), (1,)))).coeffs == {
        MixedIndex((), (1, 2)): -1
    }
    assert lower(FockTensor.basis(3, MixedIndex((1, 2), (3,)))).coeffs == {
        MixedIndex((2,), (1, 3)): 1,
        MixedIndex((1,), (2, 3)): 1,
    }
    assert lower(FockTensor.basis(3, MixedIndex((1, 1), (2, 3)))).coeffs == {
        MixedIndex((1,), (1, 2, 3)): 2
    }
    # wedge slot already occupied: the term dies
    assert lower(FockTensor.basis(2, MixedIndex((1,), (1,)))).is_zero()


def test_lower_at_bottom_is_the_zero_map():
    z = lower(FockTensor.basis(2, MixedIndex((), (1, 2))))
    assert z.is_zero()
    assert z.signature == (2, -1, 3)
    # degenerate zeros pass through both operators as shifted zeros
    assert lower(z).signature == (2, -2, 4)
    assert raise_(z).signature == (2, 0, 2)
    assert raise_(z).is_zero()
    for k, q in ((1, -1), (-1, 0), (0, 3), (2, 3)):
        z = lower(FockTensor.zero(2, k, q))
        assert z.is_zero() and z.signature == (2, k - 1, q + 1)


def test_raise_examples():
    assert raise_(FockTensor.basis(2, MixedIndex((1,), (2,)))).coeffs == {
        MixedIndex((1, 2), ()): 1
    }
    assert raise_(FockTensor.basis(2, MixedIndex((), (1, 2)))).coeffs == {
        MixedIndex((1,), (2,)): 1,
        MixedIndex((2,), (1,)): -1,
    }
    assert raise_(FockTensor.basis(2, MixedIndex((1,), (1,)))).coeffs == {
        MixedIndex((1, 1), ()): 1
    }


def test_raise_needs_a_wedge_slot():
    # no wedge slot to move: the zero map into the empty block (k+1, -1)
    z = raise_(FockTensor.basis(2, MixedIndex((1,), ())))
    assert z.is_zero() and z.signature == (2, 2, -1)
    assert raise_(z).signature == (2, 3, -2) and raise_(z).is_zero()
    assert lower(z).signature == (2, 1, 0) and lower(z).is_zero()


@given(mixed_tensors())
def test_lower_twice_is_zero(t):
    assert lower(lower(t)).is_zero()


@given(mixed_tensors(min_q=2))
def test_raise_twice_is_zero(t):
    assert raise_(raise_(t)).is_zero()


@given(mixed_tensors())
def test_interchange_sums_to_degree(t):
    """raise_ after lower plus lower after raise_ multiplies by k + q."""
    assert lower(raise_(t)) + raise_(lower(t)) == t * (t.k + t.q)


@given(mixed_tensors(min_k=1))
def test_operators_are_linear(t):
    assert lower(t * Fraction(3, 7)) == lower(t) * Fraction(3, 7)
    labels = hf.enum_basis(t.dim, t.k, t.q)
    if labels:
        u = FockTensor.basis(t.dim, labels[0])
        assert lower(t + u) == lower(t) + lower(u)


def test_operator_matrix_example():
    m = operator_matrix("lower", 2, 1, 1)
    cols = m.columns()
    # domain order: (1;1), (1;2), (2;1), (2;2); codomain: (;1,2)
    assert cols == [{}, {0: 1}, {0: -1}, {}]
    r = operator_matrix("raise", 2, 0, 2)
    # (;1,2) -> (1;2) - (2;1) in codomain order (1;1), (1;2), (2;1), (2;2)
    assert r.columns() == [{1: 1, 2: -1}]


def test_operator_matrix_entries_are_integers():
    for d in (2, 3):
        for n in range(1, 4):
            for k in range(n + 1):
                q = n - k
                for which in ("lower", "raise"):
                    m = operator_matrix(which, d, k, q)
                    for value in m.coeffs.values():
                        assert Fraction(value).denominator == 1


def test_operator_matrix_rejects_unknown_name():
    with pytest.raises(InvalidIndex):
        operator_matrix("shift", 2, 1, 1)
    # raise at q = 0 is the zero-row map into the empty block
    m = operator_matrix("raise", 2, 1, 0)
    assert m.cod_sig == (2, 2, -1) and hf.block_dim(*m.cod_sig) == 0
    assert m.columns() == [{}, {}] and matrix_rank(m.columns()) == 0


def test_lower_matrix_at_bottom_has_empty_codomain():
    m = operator_matrix("lower", 2, 0, 2)
    assert hf.block_dim(*m.cod_sig) == 0 and len(m.columns()) == 1
    assert matrix_rank(m.columns()) == 0


@given(mixed_tensors(min_k=1))
def test_matrix_apply_agrees_with_operator(t):
    m = operator_matrix("lower", t.dim, t.k, t.q)
    assert m.apply(t) == lower(t)


@given(mixed_tensors())
def test_raise_matrix_apply_agrees_with_operator(t):
    m = operator_matrix("raise", t.dim, t.k, t.q)
    assert m.apply(t) == raise_(t)


def test_gram_matrix_is_the_multiplicity_diagonal():
    g = gram_matrix(3, 3, 1)
    labels = hf.enum_basis(3, 3, 1)
    for i, b in enumerate(labels):
        t = FockTensor.basis(3, b)
        assert g.coeffs.get((i, i)) == hf.inner(t, t)
    assert all(i == j for i, j in g.coeffs)


def test_adjointness_through_gram_matrices():
    """The two operators are adjoint for the permanent-determinant pairing."""
    for d, k, q in [(2, 1, 1), (2, 2, 0), (3, 2, 1), (3, 1, 2), (2, 2, 2), (3, 3, 0)]:
        m_low = operator_matrix("lower", d, k, q)
        m_rai = operator_matrix("raise", d, k - 1, q + 1)
        lhs = m_low.transpose() @ gram_matrix(d, k - 1, q + 1)
        rhs = gram_matrix(d, k, q) @ m_rai
        assert lhs == rhs, (d, k, q)


def test_linear_map_algebra():
    ident = LinearMap.identity((2, 1, 1))
    m = operator_matrix("lower", 2, 1, 1)
    assert m @ ident == m
    assert (m + m).scale(Fraction(1, 2)) == m
    assert (m - m).max_abs_entry() == 0
    assert m.max_abs_entry() == 1
    assert matrix_rank(m.columns()) == 1


# The premise of the per-pattern suites: relabelling the ground basis
# by an injective map f of indices commutes with lower, raise_, the gram
# factors and the Hermite shifts, up to the sign that sorts the wedge
# part.  H_{k,q} over R^d is then the direct sum of its weight blocks, and
# each is a signed relabelling of the block of its pattern mu over
# R^len(mu): the adjacent transpositions carry weights onto each other,
# and the order-preserving injections carry the pattern block into R^d.


def _relabel_full(v, f, d):
    """The full tensor v with f applied to the index in every slot, over R^d."""
    coeffs = {}
    for key, c in v.coeffs.items():
        image = tuple(f(i) for i in key)
        coeffs[image] = coeffs.get(image, 0) + c
    return FullTensor(d, v.n, coeffs)


def _commutes(t, f, d):
    """Every premise operator commutes with the relabelling of t by f."""
    for op in (lower, raise_):
        assert op(relabel(t, f, d)) == relabel(op(t), f, d), op.__name__
    for label in t.coeffs:
        image = relabel(FockTensor._trusted(t.shape(), {label: 1}), f, d)
        assert [_gram_factor(b) for b in image.coeffs] == [_gram_factor(label)]
    for which in ("lower", "raise"):
        shifted = hermite_matrix(which, t.dim, t.k, t.q).apply(t)
        image = hermite_matrix(which, d, t.k, t.q).apply(relabel(t, f, d))
        assert image == relabel(shifted, f, d), which


@given(mixed_tensors(max_dim=4))
def test_adjacent_transpositions_commute_with_the_operators(t):
    for i in range(1, t.dim):
        swap = {i: i + 1, i + 1: i}
        _commutes(t, lambda j: swap.get(j, j), t.dim)


@given(pattern_tensors(), st.data())
def test_pattern_blocks_embed_into_every_ground(pair, data):
    t, d = pair
    r = len(t.dim)
    image = sorted(data.draw(st.lists(st.integers(1, d), min_size=r, max_size=r, unique=True)))
    _commutes(t, lambda j: image[j - 1], d)


def test_pattern_blocks_count_the_whole_block():
    for d in range(1, 7):
        for n in range(1, 7):
            for k in range(n + 1):
                q = n - k
                parts = [(mu, count, hf.block_dim(mu, k, q)) for mu, count in weight_patterns(d, n)]
                assert all(len(hf.enum_basis(mu, k, q)) == dim for mu, _, dim in parts)
                assert sum(count * dim for _, count, dim in parts) == hf.block_dim(d, k, q)


# The premise of the decomposition certificate: one distinct-index
# generator over R^n covers every label, because every map f: [n] -> [r]
# of indices, injective or not, applied in every slot commutes with embed,
# lower, raise_, the slot permutations and the transposition sum T, up to
# the wedge sort sign, or 0 where f repeats a wedge index.


@given(mixed_tensors(max_dim=5, max_n=5), st.data())
def test_merging_maps_commute_with_embed_the_operators_and_t(t, data):
    r = data.draw(st.integers(1, t.dim))
    images = data.draw(st.lists(st.integers(1, r), min_size=t.dim, max_size=t.dim))
    f = lambda i: images[i - 1]  # noqa: E731
    n = t.k + t.q
    relabelled = relabel(t, f, r)
    assert embed(relabelled) == _relabel_full(embed(t), f, r)
    for op in (lower, raise_):
        assert op(relabelled) == relabel(op(t), f, r), op.__name__
    v = embed(t)
    p = Permutation(data.draw(st.permutations(range(1, n + 1))))
    assert permute(_relabel_full(v, f, r), p) == _relabel_full(permute(v, p), f, r)
    assert transposition_sum(_relabel_full(v, f, r)) == _relabel_full(transposition_sum(v), f, r)
