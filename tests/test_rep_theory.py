"""Orbit spans, position-set families, the transposition-sum split."""

from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given

import hodgefock as hf
from hodgefock import rep_theory
from hodgefock import (
    DegreeOutOfRange,
    FockTensor,
    FullTensor,
    MixedIndex,
    NotInvariant,
    Permutation,
    Subspace,
    action_trace,
    decomposition_dims,
    embed,
    embedded_subspace,
    intersect,
    lower,
    orbit_span,
    orbit_split_spaces,
    permute,
    raise_,
    span_all_positions,
    weight_patterns,
)
from hodgefock.rep_theory import class_representatives, position_permutation

from conftest import mixed_tensors
from oracles import symmetric_group, transposition_sum


def _casimir(w: FullTensor) -> FullTensor:
    """Sum of all slot transpositions applied to w."""
    n = w.n
    acc = FullTensor.zero(w.dim, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            acc = acc + permute(w, Permutation.transposition(n, i, j))
    return acc


def test_subspace_basics():
    s = Subspace(2, 2)
    assert s.dim == 0
    assert s.add(FullTensor(2, 2, {(1, 2): 1}))
    assert not s.add(FullTensor(2, 2, {(1, 2): 7}))
    assert s.add(FullTensor(2, 2, {(2, 1): 2, (1, 2): 1}))
    assert s.dim == 2
    assert s.contains(FullTensor(2, 2, {(1, 2): 3, (2, 1): -5}))
    assert not s.contains(FullTensor(2, 2, {(1, 1): 1}))


def test_subspace_equality_is_span_equality():
    a = Subspace.spanned_by(2, 1, [FullTensor(2, 1, {(1,): 1}), FullTensor(2, 1, {(2,): 1})])
    b = Subspace.spanned_by(
        2, 1, [FullTensor(2, 1, {(1,): 2, (2,): 3}), FullTensor(2, 1, {(1,): -1, (2,): 1})]
    )
    assert a == b


def test_subspace_coordinates():
    v1 = FullTensor(2, 2, {(1, 2): 1, (2, 1): 1})
    v2 = FullTensor(2, 2, {(1, 2): 1, (2, 1): -1})
    # The stored row of 2*e11 + e22 has pivot entry 2, not 1: its
    # coordinate is a division that must stay exact.
    w = FullTensor(2, 2, {(1, 1): 2, (2, 2): 1})
    for s, t in [
        (Subspace.spanned_by(2, 2, [v1, v2]), FullTensor(2, 2, {(1, 2): 5, (2, 1): -1})),
        (
            Subspace.spanned_by(2, 2, [w, v2]),
            FullTensor(2, 2, {(1, 1): 3, (2, 2): Fraction(3, 2), (1, 2): 4, (2, 1): -4}),
        ),
    ]:
        coords = s.coordinates(t)
        assert all(type(c) in (int, Fraction) for c in coords), coords
        rebuilt = FullTensor.zero(2, 2)
        for c, basis_vec in zip(coords, s.basis()):
            rebuilt = rebuilt + basis_vec.scale(c)
        assert rebuilt == t
        with pytest.raises(NotInvariant):
            s.coordinates(FullTensor(2, 2, {(1, 1): 1}))


def test_position_permutation_moves_the_first_block():
    p = position_permutation(4, 2, (2, 4))
    assert p.images == (2, 4, 1, 3)
    assert position_permutation(3, 0, ()).images == (1, 2, 3)


def test_orbit_span_dims_on_distinct_labels():
    for d, b in [
        (2, MixedIndex((1,), (2,))),
        (3, MixedIndex((1,), (2, 3))),
        (3, MixedIndex((1, 2), (3,))),
        (4, MixedIndex((1, 2), (3, 4))),
    ]:
        n = len(b.sym) + len(b.alt)
        assert orbit_span(b, d).dim == comb(n, len(b.sym))


def test_orbit_span_matches_full_group_sweep():
    """Position-set representatives span the same space as all n! images."""
    cases = [
        (2, MixedIndex((1,), (2,))),
        (3, MixedIndex((1,), (2, 3))),
        (3, MixedIndex((1, 2), (3,))),
        (2, MixedIndex((1, 1), (2,))),
        (2, MixedIndex((1,), (1, 2))),
        (4, MixedIndex((1, 2), (3, 4))),
    ]
    for d, b in cases:
        n = len(b.sym) + len(b.alt)
        w = embed(FockTensor.basis(d, b))
        brute = Subspace(d, n)
        for p in symmetric_group(n):
            brute.add(permute(w, p))
        assert orbit_span(b, d) == brute, b


def test_degenerate_orbit_can_be_smaller():
    assert orbit_span(MixedIndex((1,), (1, 2)), 2).dim == 2 < comb(3, 1)


def test_span_all_positions_example():
    assert span_all_positions(2, 1, 1).dim == 4
    assert span_all_positions(2, 2, 0).dim == 3
    assert span_all_positions(2, 0, 2).dim == 1
    # degenerate degrees give the zero subspace of the right ambient power
    assert span_all_positions(2, -1, 3).dim == 0
    assert span_all_positions(2, 1, 3).dim == 0
    for k, q in ((-1, 3), (1, 3), (2, -1), (-1, 0)):
        s = span_all_positions(2, k, q)
        assert s.dim == 0 and (s.dim_ground, s.degree) == (2, k + q)


def test_embedded_subspace_dims():
    for d, k, q in [(2, 1, 1), (2, 2, 0), (3, 1, 2), (3, 2, 1)]:
        assert embedded_subspace(d, k, q).dim == hf.block_dim(d, k, q)


def test_intersect_example():
    s = intersect(embedded_subspace(2, 1, 1), span_all_positions(2, 2, 0))
    assert s.dim == 3
    t = intersect(span_all_positions(2, 2, 0), embedded_subspace(2, 1, 1))
    assert s == t
    assert intersect(s, span_all_positions(2, 0, 2)).dim == 0


def test_weight_pattern_counts_cover_the_power():
    """Each pattern mu stands for count weights of n!/prod(mu_i!) keys each."""
    for d in range(1, 6):
        for n in range(1, 7):
            patterns = weight_patterns(d, n)
            assert len({mu for mu, _ in patterns}) == len(patterns)
            for mu, count in patterns:
                assert sum(mu) == n and len(mu) <= d and list(mu) == sorted(mu, reverse=True)
                assert count >= 1
            keys = sum(count * factorial(n) // prod(map(factorial, mu)) for mu, count in patterns)
            assert keys == d**n, (d, n)


def test_decomposition_dims_match_the_full_power_oracle():
    for d in range(1, 4):
        for n in range(1, 5):
            for k in range(n + 1):
                q = n - k
                space = embedded_subspace(d, k, q)
                sp = intersect(space, span_all_positions(d, k + 1, q - 1))
                sm = intersect(space, span_all_positions(d, k - 1, q + 1))
                assert sp.dim + sm.dim == space.dim and intersect(sp, sm).dim == 0
                expected = (space.dim, sp.dim, sm.dim, True)
                assert decomposition_dims(d, k, q) == expected, (d, k, q)


@pytest.mark.parametrize("d, k, q", [(3, 0, 0), (2, 1, -1), (3, -1, 2), (1, -2, 0)])
def test_decomposition_dims_refuses_bad_degrees(d, k, q):
    # Degree 0 has no split, and a negative degree no block: both are
    # refused before any certificate is read, as weitzenboeck_defect does.
    with pytest.raises(DegreeOutOfRange, match="decomposition"):
        decomposition_dims(d, k, q)


def orbit_split_dims(b, d):
    """Dimensions of the two pieces of the orbit span of embed(b)."""
    plus, minus = orbit_split_spaces(b, orbit_span(b, d))
    return plus.dim, minus.dim


def test_orbit_split_dims_examples():
    assert orbit_split_dims(MixedIndex((1,), (2,)), 2) == (1, 1)
    assert orbit_split_dims(MixedIndex((1,), (2, 3)), 3) == (2, 1)
    assert orbit_split_dims(MixedIndex((1, 2), (3,)), 3) == (1, 2)
    assert orbit_split_dims(MixedIndex((1, 2), ()), 2) == (0, 1)
    assert orbit_split_dims(MixedIndex((), (1, 2)), 2) == (1, 0)
    # degenerate labels still split, without the binomial guarantee
    assert orbit_split_dims(MixedIndex((1,), (1,)), 2) == (1, 0)


def test_orbit_split_dims_are_hook_dims():
    for n in range(2, 5):
        d = n
        for k in range(n + 1):
            q = n - k
            b = MixedIndex(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)))
            expected = (comb(n - 1, q - 1) if q >= 1 else 0, comb(n - 1, q))
            assert orbit_split_dims(b, d) == expected, b


def test_orbit_split_spaces_match_intersection_route():
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        d, q = n, n - k
        b = MixedIndex(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)))
        orbit = orbit_span(b, d)
        plus, minus = orbit_split_spaces(b, orbit)
        assert plus == intersect(orbit, span_all_positions(d, k + 1, q - 1))
        assert minus == intersect(orbit, span_all_positions(d, k - 1, q + 1))


@given(mixed_tensors(min_k=1, min_q=1, max_dim=2, max_n=4))
def test_casimir_transports_the_split(t):
    """The interchange composites match the transposition sum on embeddings."""
    k, q = t.k, t.q
    n = k + q
    c_plus = Fraction(k * (k + 1), 2) - Fraction(q * (q - 1), 2)
    c_minus = c_plus - n
    w = embed(t)
    assert embed(lower(raise_(t))) == _casimir(w) - w.scale(c_minus)
    assert embed(raise_(lower(t))) == w.scale(c_plus) - _casimir(w)


def test_orbit_split_sums_transpositions_once_per_basis_vector(monkeypatch):
    # T v is one permute per slot transposition, C(3, 2) of them, and
    # each basis vector v is summed once.
    b = MixedIndex((1,), (2, 3))
    orbit = orbit_span(b, 3)
    calls = []
    real = rep_theory.permute

    def counted(v, p):
        calls.append(orbit.basis().index(v))
        return real(v, p)

    monkeypatch.setattr(rep_theory, "permute", counted)
    plus, minus = orbit_split_spaces(b, orbit)
    assert (plus.dim, minus.dim) == (2, 1)
    assert orbit.dim == comb(3, 1)
    assert Counter(calls) == {i: comb(3, 2) for i in range(orbit.dim)}


def transposition_sum_matrix(space):
    """Matrix of the sum of all slot transpositions in the canonical basis
    of an invariant subspace: column j holds the coordinates of the image
    of the j-th basis vector (NotInvariant if it leaves the subspace)."""
    cols = [space.coordinates(transposition_sum(v)) for v in space.basis()]
    return [list(row) for row in zip(*cols)]


def test_transposition_sum_matrix_on_symmetric_block():
    space = span_all_positions(2, 2, 0)
    m = transposition_sum_matrix(space)
    assert m == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_transposition_sum_needs_invariance():
    space = Subspace.spanned_by(2, 2, [FullTensor(2, 2, {(1, 2): 1})])
    with pytest.raises(NotInvariant):
        transposition_sum_matrix(space)
    with pytest.raises(NotInvariant):
        action_trace(space, Permutation((2, 1)))


def coordinate_trace(space, p):
    """The trace read off the coordinates of each canonical basis vector's image."""
    return sum(space.coordinates(permute(v, p))[i] for i, v in enumerate(space.basis()))


def test_action_trace_example():
    orbit = orbit_span(MixedIndex((1,), (2, 3)), 3)
    swap = Permutation((2, 1, 3))
    assert action_trace(orbit, swap) == -1
    assert action_trace(orbit, Permutation.identity(3)) == orbit.dim
    # The stored row of 2*e11 + e22 has pivot entry 2, not 1.
    space = Subspace.spanned_by(
        2, 2, [FullTensor(2, 2, {(1, 1): 2, (2, 2): 1}), FullTensor(2, 2, {(1, 2): 1, (2, 1): -1})]
    )
    assert action_trace(space, Permutation((2, 1))) == 0
    for p in symmetric_group(2):
        assert action_trace(space, p) == coordinate_trace(space, p)


def test_character_additivity():
    for d, b in [
        (3, MixedIndex((1,), (2, 3))),
        (4, MixedIndex((1, 2), (3, 4))),
        (2, MixedIndex((1,), (1, 2))),
    ]:
        n = len(b.sym) + len(b.alt)
        orbit = orbit_span(b, d)
        plus, minus = orbit_split_spaces(b, orbit)
        for p in symmetric_group(n):
            assert action_trace(orbit, p) == action_trace(plus, p) + action_trace(minus, p)
            for space in (orbit, plus, minus):
                assert action_trace(space, p) == coordinate_trace(space, p)


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Cycle lengths of p, largest first."""
    seen: set[int] = set()
    lengths = []
    for start in range(1, p.degree + 1):
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i = p(i)
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
def test_class_representatives_meet_each_cycle_type_once(n, classes):
    types = [cycle_type(p) for p in class_representatives(n)]
    assert len(types) == len(set(types)) == classes
    # The class of cycle type lambda has n!/z_lambda elements, with
    # z_lambda = prod_v v^m_v m_v! over the part sizes v of multiplicity m_v.
    sizes = {
        t: factorial(n) // prod(v**m * factorial(m) for v, m in Counter(t).items()) for t in types
    }
    assert sum(sizes.values()) == factorial(n)
    assert Counter(cycle_type(p) for p in symmetric_group(n)) == sizes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_class_representatives_generate_the_symmetric_group(n):
    # The rep case proves each piece invariant through action_trace on the
    # class representatives alone, so they must generate S_n.
    reps = class_representatives(n)
    group = {p.images for p in reps}
    frontier = list(reps)
    while frontier:
        products = [p * g for p in frontier for g in reps]
        frontier = [p for p in products if p.images not in group]
        group.update(p.images for p in frontier)
    assert len(group) == factorial(n)
