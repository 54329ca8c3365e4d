"""Weitzenboeck identity, projector split, exactness ranks, witnesses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from hodgefock import (
    DegreeOutOfRange,
    FockTensor,
    MixedIndex,
    exactness_report,
    hodge_split,
    inner,
    lower,
    raise_,
    random_tensor,
    weitzenboeck_defect,
    witnesses,
)
from hodgefock.fock_ops import alt_subset, sym_subset
from hodgefock.hodge import ExactnessRow
from hodgefock.rep_theory import orbit_span, span_all_positions

from conftest import mixed_tensors


def test_weitzenboeck_defect_vanishes_on_small_grid():
    for d in (1, 2, 3):
        for n in range(1, 5):
            for k in range(n + 1):
                assert weitzenboeck_defect(d, k, n - k) == 0, (d, k, n - k)


def test_weitzenboeck_defect_on_empty_block_is_zero():
    assert weitzenboeck_defect(1, 0, 2) == 0
    for d in (1, 2, 3):
        for k in range(4):
            assert weitzenboeck_defect(d, k, d + 1) == 0, (d, k)


@pytest.mark.parametrize("d, k, q", [(2, 1, -1), (2, 1, -2), (2, -1, 2)])
def test_weitzenboeck_defect_refuses_negative_degrees(d, k, q):
    with pytest.raises(DegreeOutOfRange):
        weitzenboeck_defect(d, k, q)


def test_split_example():
    t = FockTensor.basis(2, MixedIndex((1,), (2,)))
    plus, minus = hodge_split(t)
    half = Fraction(1, 2)
    assert plus.coeffs == {MixedIndex((1,), (2,)): half, MixedIndex((2,), (1,)): half}
    assert minus.coeffs == {MixedIndex((1,), (2,)): half, MixedIndex((2,), (1,)): -half}


def test_split_needs_positive_degree():
    with pytest.raises(DegreeOutOfRange):
        hodge_split(FockTensor.zero(2, 0, 0))


@given(mixed_tensors())
def test_split_reassembles_and_annihilates(t):
    plus, minus = hodge_split(t)
    assert plus + minus == t
    assert lower(plus).is_zero()
    assert raise_(minus).is_zero()
    if t.q == 0:
        assert plus.is_zero()
    assert inner(plus, minus) == 0


@given(mixed_tensors())
def test_split_is_idempotent(t):
    plus, minus = hodge_split(t)
    zero = FockTensor.zero(t.dim, t.k, t.q)
    assert hodge_split(plus) == (plus, zero)
    assert hodge_split(minus) == (zero, minus)


def test_split_boundary_blocks():
    t = FockTensor.basis(2, MixedIndex((1, 2), ()))
    plus, minus = hodge_split(t)
    assert plus.is_zero() and minus == t
    u = FockTensor.basis(2, MixedIndex((), (1, 2)))
    plus, minus = hodge_split(u)
    assert minus.is_zero() and plus == u
    assert minus == FockTensor.zero(2, 0, 2)


def test_exactness_report_frozen_oracle():
    rep = exactness_report(2, 2)
    rows = {r.k: r for r in rep.rows}
    assert [r.k for r in rep.rows] == [2, 1, 0]
    assert (rows[2].dim, rows[1].dim, rows[0].dim) == (3, 4, 1)
    assert (rows[2].rank_lower, rows[1].rank_lower, rows[0].rank_lower) == (3, 1, 0)
    assert (rows[2].ker_lower, rows[1].ker_lower, rows[0].ker_lower) == (0, 3, 1)
    assert (rows[2].rank_raise, rows[1].rank_raise, rows[0].rank_raise) == (0, 3, 1)
    assert (rows[2].ker_raise, rows[1].ker_raise, rows[0].ker_raise) == (3, 1, 0)
    assert all(r.harmonic_dim == 0 for r in rep.rows)
    assert rep.is_exact() and rep.rank_nullity_ok()


def test_exactness_report_with_empty_blocks():
    rep = exactness_report(1, 2)
    rows = {r.k: r for r in rep.rows}
    assert (rows[2].dim, rows[1].dim, rows[0].dim) == (1, 1, 0)
    assert rep.is_exact()
    # every block with q > d is zero-dimensional and has an all-zero row
    for d in (1, 2, 3):
        for k in range(4):
            row = exactness_report(d, k + d + 1).row(k)
            assert row == ExactnessRow(k, d + 1, 0, 0, 0, 0, 0, 0), (d, k)


def test_exactness_report_grid():
    for d in (1, 2, 3):
        for n in range(1, 5):
            rep = exactness_report(d, n)
            assert rep.is_exact(), (d, n)
            assert rep.rank_nullity_ok()
            assert rep.harmonic_trivial()


def test_exactness_report_serialization():
    rep = exactness_report(2, 2)
    data = rep.as_dict()
    assert data["d"] == 2 and data["n"] == 2
    assert data["lower_exact"] and data["raise_exact"] and data["harmonic_trivial"]
    assert data["rows"][0] == rep.rows[0].as_dict()


def test_exactness_report_needs_positive_degree():
    with pytest.raises(DegreeOutOfRange):
        exactness_report(2, 0)


def test_witness_example():
    vplus, vminus = witnesses(MixedIndex((1,), (2,)), 2)
    half = Fraction(1, 2)
    assert vplus.coeffs == {(1, 2): half, (2, 1): half}
    assert vminus.coeffs == {(1, 2): half, (2, 1): -half}


def test_witnesses_have_the_advertised_symmetries():
    for d, b in [
        (2, MixedIndex((1,), (2,))),
        (3, MixedIndex((1,), (2, 3))),
        (3, MixedIndex((1, 2), (3,))),
        (4, MixedIndex((1, 2), (3, 4))),
    ]:
        k, q = len(b.sym), len(b.alt)
        n = k + q
        vplus, vminus = witnesses(b, d)
        assert not vplus.is_zero() and not vminus.is_zero()
        assert sym_subset(vplus, range(1, k + 2)) == vplus
        assert alt_subset(vplus, range(k + 2, n + 1)) == vplus
        assert sym_subset(vminus, range(1, k)) == vminus
        assert alt_subset(vminus, range(k, n + 1)) == vminus
        # hence membership in the two neighbouring position families
        assert span_all_positions(d, k + 1, q - 1).contains(vplus)
        assert span_all_positions(d, k - 1, q + 1).contains(vminus)
        # and both live in the permutation orbit of embed(b)
        orbit = orbit_span(b, d)
        assert orbit.contains(vplus) and orbit.contains(vminus)


def test_witnesses_need_both_degrees():
    with pytest.raises(DegreeOutOfRange):
        witnesses(MixedIndex((1,), ()), 2)
    with pytest.raises(DegreeOutOfRange):
        witnesses(MixedIndex((), (1,)), 2)


def test_random_tensor_is_seed_deterministic():
    a = random_tensor(3, 2, 1, random.Random("tag"))
    b = random_tensor(3, 2, 1, random.Random("tag"))
    c = random_tensor(3, 2, 1, random.Random("other"))
    assert a == b
    assert a.signature == (3, 2, 1)
    assert a != c
