"""Whole-block certificates of the split and chaos suites, the
decomposition's central-element certificate, and the group checks of
the rep suite.

The split is proved by the identities of each pattern block's
certificate, read off the Koszul model, whose columns lower and raise_
must give on every label.  The chaos suite is proved in Hermite
coordinates: the dictionary as distinct keys of the labels, the shifts of
d and δ against the model's columns, one-variable ladder and moment
tables, and the Fock adjointness; the round trip through monomials is
the whole-block oracle's alone.  The decomposition is proved
per pattern block by the transposition sum, witness identities and Fock
ranks.  The rep suite reads the orbit in position-set coordinates, S_n
through its adjacent transpositions and one permutation per cycle type.
The chaos-truncation case compares the two routes of its defect on each
monomial of h, one per relabelling class.  The slow checks they
replaced stay here as oracles, and a stand-in for each ingredient shows
that the case fails without it.
"""

import json
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

import hodgefock.chaos as chaos
import hodgefock.cli as cli
import hodgefock.fock_ops as fock_ops
import hodgefock.hodge as hodge
import hodgefock.rep_theory as rep_theory
from hodgefock import (
    FockTensor,
    FullTensor,
    action_trace,
    block_dim,
    chaos_field,
    codifferential,
    embed,
    enum_basis,
    exterior_derivative,
    gaussian_inner,
    hodge_laplacian,
    inner,
    lower,
    permute,
    raise_,
    random_tensor,
)
from hodgefock.chaos import FormField, HermiteExpansion
from hodgefock.cli import VerifyConfig, run_verify
from hodgefock.fock_ops import LinearMap, Permutation, _wedge_insert, gram_matrix, operator_matrix
from hodgefock.hodge import ExactnessRow, hodge_split, operator_rank
from hodgefock.linalg import lincomb, matrix_rank
from hodgefock.tensor_core import perm_sign, weight_patterns

import oracles
from conftest import clear_caches
from oracles import alt_subset, sym_subset, symmetric_group

GRID = [(d, n, k) for d in (1, 2, 3) for n in range(1, 5) for k in range(n + 1)]

pytestmark = pytest.mark.usefixtures("fresh_caches")


def split_oracle(d, n, k):
    """The five split identities on every basis label, then adjointness."""
    q = n - k
    zero = FockTensor.zero(d, k, q)

    def splits(b):
        e = FockTensor.basis(d, b)
        plus, minus = hodge_split(e)
        return (
            plus + minus == e
            and lower(plus).is_zero()
            and (raise_(minus).is_zero() if q >= 1 else plus.is_zero())
            and hodge_split(plus) == (plus, zero)
            and hodge_split(minus) == (zero, minus)
        )

    # The identities are linear, so holding on every basis label they hold on the block.
    ok = all(splits(b) for b in enum_basis(d, k, q))
    return ok and gram_matrix(d, k - 1, q + 1) @ operator_matrix("lower", d, k, q) == (
        gram_matrix(d, k, q) @ operator_matrix("raise", d, k - 1, q + 1)
    ).transpose()


def isometry_oracle(d, n):
    """gaussian_inner against inner on every pair of labels of H_{n,0}."""
    basis = [FockTensor.basis(d, b) for b in enum_basis(d, n, 0)]
    forms = [chaos_field(e) for e in basis]
    return all(
        gaussian_inner(forms[i], forms[j]) == inner(basis[i], basis[j])
        for i in range(len(basis))
        for j in range(i, len(basis))
    )


def chaos_oracle(d, n, k, seed):
    """The chaos case as it ran label by label on monomials, with the
    adjoint sampled on three seeded random pairs of fields."""
    q = n - k
    labels = enum_basis(d, k, q)
    basis = [FockTensor.basis(d, b) for b in labels]
    diagram = dual = eigen = True
    for e in basis:
        f = chaos_field(e)
        diagram = diagram and exterior_derivative(f) == chaos_field(lower(e))
        dual = dual and codifferential(f) == chaos_field(raise_(e))
        eigen = eigen and hodge_laplacian(f) == f.scale(n)
    details = {
        "dim": len(labels),
        "diagram": diagram,
        "dual_diagram": dual,
        "laplacian_eigenvalue": str(n) if labels else "0",
    }
    ok = diagram and dual and eigen
    if q == 0:
        details["isometry"] = isometry_oracle(d, n)
        ok = ok and details["isometry"]
    if q + 1 <= d:
        rng = oracles._rng(seed, "chaos", d, n, k)
        adj = True
        for _ in range(3):
            u = chaos_field(random_tensor(d, k, q, rng))
            w = chaos_field(random_tensor(d, max(k - 1, 0), q + 1, rng))
            adj = adj and gaussian_inner(exterior_derivative(u), w) == gaussian_inner(
                u, codifferential(w)
            )
        details["adjoint"] = adj
        ok = ok and adj
    return ("pass" if ok else "fail"), details


@pytest.mark.parametrize("d, n, k", GRID)
def test_split_case_agrees_with_the_per_label_oracle(d, n, k):
    status, details = hodge._case_split(d, n, k)
    assert split_oracle(d, n, k)
    assert status == "pass"
    assert details == {"dim": len(enum_basis(d, k, n - k))}


@pytest.mark.parametrize("d, n, k", GRID)
def test_chaos_case_agrees_with_the_per_label_oracle(d, n, k):
    case = chaos._case_chaos(d, n, k)
    assert case[0] == "pass"
    assert case == chaos_oracle(d, n, k, 0)


@pytest.mark.parametrize("d, n, k", GRID)
def test_chaos_isometry_agrees_with_the_all_pairs_oracle(d, n, k):
    status, details = chaos._case_chaos(d, n, k)
    assert status == "pass"
    if k == n:
        assert isometry_oracle(d, n)
        assert details["isometry"] is True
    else:
        assert "isometry" not in details


def _entry_changed(real, shift, where, change=lambda v: v + 1):
    """The operator real (lower for shift -1, raise_ for 1) with one entry
    of its matrix changed, on each block where where(sig, labels, cod)
    names it as (row label, column label): change(v) replaces its value v."""

    def stand_in(t):
        image = real(t)
        sig = t.shape()
        ground, k, q = sig
        entry = where(sig, enum_basis(*sig), enum_basis(ground, k + shift, q - shift))
        if entry is None or entry[1] not in t.coeffs:
            return image
        row, col = entry
        old = real(FockTensor._trusted(sig, {col: 1})).coeffs.get(row, 0)
        coeffs = dict(image.coeffs)
        coeffs[row] = coeffs.get(row, 0) + (change(old) - old) * t.coeffs[col]
        return FockTensor._trusted(image.shape(), coeffs)

    return stand_in


def _row_0_of_the_last_column(sig, labels, cod):
    """The entry in row 0 and the last column, on blocks with more than two
    labels and a non-empty codomain."""
    return (cod[0], labels[-1]) if len(labels) > 2 and cod else None


def _row_0_of_column_0(sig, labels, cod):
    return (cod[0], labels[0]) if labels and cod else None


_perturbed_raise = _entry_changed(hodge.raise_, 1, _row_0_of_the_last_column)


def test_perturbed_split_matrix_fails_and_names_the_label(monkeypatch):
    # One entry of raise_, in column 2, changed on every block that has a
    # column 2: raise_ no longer gives the model's column there, so both
    # the split and the weitzenboeck case fail, and the split case names
    # the dictionary of raise_ and the broken label.  On d = n = 3, k = 1
    # only the weight block of the pattern 1^3 has three labels, so the
    # label is its third one, e_3 tensor e_1 ^ e_2, a label over R^3 as
    # well.  The defect is read off lower and raise_ themselves.
    d, n, k = 3, 3, 1
    labels = enum_basis((1, 1, 1), k, n - k)
    assert [b.render() for b in labels] == ["(1;2,3)", "(2;1,3)", "(3;1,2)"]
    assert hodge._case_split(d, n, k) == ("pass", {"dim": len(enum_basis(d, k, n - k))})
    assert hodge._case_weitzenboeck(d, n, k)[0] == "pass"
    monkeypatch.setattr(hodge, "raise_", _perturbed_raise)
    clear_caches()
    status, details = hodge._case_split(d, n, k)
    assert status == "fail"
    assert details == {
        "dim": len(enum_basis(d, k, n - k)),
        "failed": "raise_ = Σ ι_i",
        "label": "(3;1,2)",
    }
    status, details = hodge._case_weitzenboeck(d, n, k)
    assert status == "fail" and details["defect"] == "1"


def _first_label_negated(real):
    """The operator real in the basis with the first label of every block
    negated: D M D, D = diag(-1, 1, ..., 1) on each side."""

    def negated(t):
        first = enum_basis(*t.shape())[:1]
        coeffs = {b: -c if b in first else c for b, c in t.coeffs.items()}
        return FockTensor._trusted(t.shape(), coeffs)

    return lambda t: negated(real(negated(t)))


def test_relabelled_operators_fail_the_dictionary(monkeypatch):
    # The matrices of lower and raise_ in another basis still satisfy every
    # identity of the certificate, but they are not the model's columns:
    # the dictionary fails first and names a label of the degree-3 complex.
    assert hodge._case_split(3, 3, 1)[0] == "pass"
    for name in ("lower", "raise_"):
        monkeypatch.setattr(hodge, name, _first_label_negated(getattr(hodge, name)))
    clear_caches()
    status, details = hodge._case_split(3, 3, 1)
    assert status == "fail"
    assert details["failed"] in ("lower = Σ mu_i ε_i", "raise_ = Σ ι_i")
    assert details["label"] in [b.render() for k in range(4) for b in enum_basis(3, k, 3 - k)]


def test_split_case_checks_hodge_split_itself(monkeypatch):
    assert hodge._case_split(2, 2, 1)[0] == "pass"

    def doubled_plus(t):
        plus, minus = hodge_split(t)
        return plus.scale(2), minus

    monkeypatch.setattr(hodge, "hodge_split", doubled_plus)
    clear_caches()
    status, details = hodge._case_split(2, 2, 1)
    assert status == "fail"
    assert details["failed"] == "hodge_split"
    assert details["label"] in [b.render() for b in enum_basis(2, 1, 1)]


def _from_poly_with(edit):
    real = HermiteExpansion.from_poly.__func__

    def stand_in(cls, p):
        h = real(cls, p)
        return cls._trusted((h.dim,), edit(h))

    return classmethod(stand_in)


def _wrong_he_row(real, degree, row):
    """The table real with the row of one degree replaced."""
    return lambda a: row if a == degree else real(a)


# Stand-ins of the round trip through monomials (chaos_field, then
# hermite_coords through from_poly, and gaussian_inner), which the verify
# path does not run: each must fail oracles.chaos_case, the whole-block
# oracle that keeps the round trip, while the verify case still passes.
ROUND_TRIP = {
    "from_poly adds a key",
    "from_poly reverses keys",
    "gaussian_inner doubled",
    "chaos_field re-keys one label",
}


def _case_reading(stand_in, d, n, k):
    """(status, details) at (d, n, k) of the chaos case that reads the
    patched stand_in, read with every cache emptied: the oracle for a
    stand-in of the round trip, after checking that verify passes."""
    clear_caches()
    oracles.chaos_block_holds.cache_clear()
    if stand_in not in ROUND_TRIP:
        return chaos._case_chaos(d, n, k)
    assert chaos._case_chaos(d, n, k)[0] == "pass"
    return oracles.chaos_case(d, n, k)


CHAOS_STAND_INS = {
    # caught by the oracle's dictionary check, and by gaussian_inner(f, f)
    "from_poly adds a key": lambda mp: mp.setattr(
        HermiteExpansion, "from_poly", _from_poly_with(lambda h: {**h.coeffs, (0,) * h.dim: 1})
    ),
    # caught by the oracle's dictionary check alone: the weights prod a!
    # are symmetric
    "from_poly reverses keys": lambda mp: mp.setattr(
        HermiteExpansion,
        "from_poly",
        _from_poly_with(lambda h: {key[::-1]: c for key, c in h.coeffs.items()}),
    ),
    # caught by the moment table, which reads chaos's _he_coeffs
    "He_2 = x^2": lambda mp: mp.setattr(
        chaos, "_he_coeffs", _wrong_he_row(chaos._he_coeffs, 2, ((2, 1),))
    ),
    "gram factor + 1": lambda mp: mp.setattr(
        chaos, "_gram_factor", lambda b, real=chaos._gram_factor: real(b) + 1
    ),
    # doubles the one gaussian_inner(f, f) per block, which only the
    # oracle's isometry runs (and the adjoint, which rests on the isometry)
    "gaussian_inner doubled": lambda mp: mp.setattr(
        chaos, "gaussian_inner", lambda u, v, real=chaos.gaussian_inner: 2 * real(u, v)
    ),
}


@pytest.mark.parametrize("stand_in", sorted(CHAOS_STAND_INS))
def test_chaos_isometry_fails_without_each_ingredient(stand_in, fresh_oracles, monkeypatch):
    d, n = 2, 3
    for case in (chaos._case_chaos, oracles.chaos_case):
        status, details = case(d, n, n)
        assert status == "pass" and details["isometry"] is True
    CHAOS_STAND_INS[stand_in](monkeypatch)
    status, details = _case_reading(stand_in, d, n, n)
    assert status == "fail" and details["isometry"] is False


def test_one_wrong_hermite_coefficient_fails_both_routes(fresh_oracles, monkeypatch):
    # He_3 = x^3 - 2x, one coefficient off.  The verify case reads _he_coeffs
    # through the per-degree tables: the ladder of d fails the diagram, the
    # moment table the isometry, and the adjoint rests on both.  The oracle
    # multiplies the field out with it and reads it back through from_poly.
    d, n = 2, 3
    assert chaos._case_chaos(d, n, n)[0] == "pass"
    assert oracles.chaos_block_holds(d, n, 0) == (True, True)
    monkeypatch.setattr(
        chaos, "_he_coeffs", _wrong_he_row(chaos._he_coeffs, 3, ((1, -2), (3, 1)))
    )
    clear_caches()
    oracles.chaos_block_holds.cache_clear()
    status, details = chaos._case_chaos(d, n, n)
    assert status == "fail"
    assert [details[key] for key in ("diagram", "isometry", "adjoint")] == [False] * 3
    assert oracles.chaos_block_holds(d, n, 0) == (False, False)


def test_colliding_hermite_keys_fail_the_dictionary(fresh_caches, monkeypatch):
    # The dictionary is distinct keys on each block's labels.  Within a
    # weight block the wedge part alone tells the labels apart, so the
    # stand-in keys every label He_0, with no wedge: on the block of (2, 1)
    # at k = 2, q = 1 the two keys collide, the record's dictionary and
    # isometry fail, and so does the case's diagram.
    assert chaos._chaos_pattern_holds((2, 1), 2, 1)[:2] == (True, True)
    monkeypatch.setattr(chaos, "hermite_key", lambda b, mu: ((), (0,) * len(mu)))
    clear_caches()
    assert chaos._chaos_pattern_holds((2, 1), 2, 1)[:2] == (False, False)
    status, details = chaos._case_chaos(2, 3, 2)
    assert status == "fail" and details["diagram"] is False


def _d_without_m(u):
    """exterior_derivative with the factor m of d(x^m) = m x^(m-1) dropped."""
    out = {}
    for (key, e), c in u.coeffs.items():
        for i, m in enumerate(e, start=1):
            ins = _wedge_insert(i, key) if m else None
            if ins is not None:
                sign, new = ins
                mono = (new, e[: i - 1] + (m - 1,) + e[i:])
                out[mono] = out.get(mono, 0) + sign * c
    return FormField._trusted((u.dim, u.q + 1), out)


def _delta_without_slot_signs(u):
    """codifferential with the sign (-1)^pos of each wedge slot replaced by
    +1, which flips it on every second slot: only a 2-form, such as the
    dx_1 ^ dx_2 rows of the ladder table, sees it."""
    out = {}
    for (key, e), c in u.coeffs.items():
        for pos, j in enumerate(key):
            new = key[:pos] + key[pos + 1 :]
            m = e[j - 1]
            up = (new, e[: j - 1] + (m + 1,) + e[j:])
            out[up] = out.get(up, 0) + c
            if m:
                down = (new, e[: j - 1] + (m - 1,) + e[j:])
                out[down] = out.get(down, 0) - m * c
    return FormField._trusted((u.dim, u.q - 1), out)


def _in_chaos(name, stand_in):
    # chaos runs the operator in the ladder tables and in hodge_laplacian.
    def patch(mp):
        mp.setattr(chaos, name, stand_in)

    return patch


def _perturbed_shift_at(sig, real=chaos._hermite_image):
    """_hermite_image with the first coefficient of δ raised by 1 on the
    keys of the labels of the block sig = (k, q)."""

    def stand_in(which, key, m):
        for i, (image, v) in enumerate(real(which, key, m)):
            yield image, v + (i == 0 and (which, sum(m), len(key)) == ("raise", *sig))

    return stand_in


def _doubled_gram_at(sig, real=fock_ops._gram_factor):
    """fock_ops' pairing of a label with itself, doubled on the block sig = (k, q)."""
    return lambda b: real(b) * (2 if (len(b.sym), len(b.alt)) == sig else 1)


def _clifford_entry_off(r, q, real=fock_ops._koszul):
    """The model record as hodge reads it, with A + B - n I off by mu_1 in
    its first column: the check names it, and the defect is mu_1."""
    eps, iota, checks, traces, residual = real(r, q)
    checks = (("plus + minus = t", 0, 0), *checks[1:])
    return eps, iota, checks, traces, [{(0, 0): 1}, *residual]


def _rekeys_first_label(t, real=chaos_field):
    """chaos_field with the first label's coefficient moved onto the second."""
    labels = sorted(t.coeffs)
    coeffs = dict(t.coeffs)
    if len(labels) >= 2:
        coeffs[labels[1]] += coeffs.pop(labels[0])
    return real(FockTensor._trusted(t.shape(), coeffs))


# (patch, the key it must make fail) on the case d = 2, n = 3, k = 2:
# q = 1, so every key but isometry is reported.
CERTIFICATE_STAND_INS = {
    "exterior_derivative without m": (_in_chaos("exterior_derivative", _d_without_m), "diagram"),
    "codifferential second slot sign flipped": (
        _in_chaos("codifferential", _delta_without_slot_signs),
        "dual_diagram",
    ),
    # The entry (0, 0) of the matrix of lower (raise_) changed, in the
    # operator that hodge's dictionary, and so the chaos record, reads.
    "operator_matrix lower entry perturbed": (
        lambda mp: mp.setattr(hodge, "lower", _entry_changed(hodge.lower, -1, _row_0_of_column_0)),
        "diagram",
    ),
    "operator_matrix raise entry perturbed": (
        lambda mp: mp.setattr(hodge, "raise_", _entry_changed(hodge.raise_, 1, _row_0_of_column_0)),
        "dual_diagram",
    ),
    # δ on the neighbour H_{1,2}, an entry of its shift matrix
    # (oracles.hermite_matrix): the adjoint pairs H_{2,1} with it.
    "hermite_matrix raise perturbed on H_{1,2}": (
        lambda mp: mp.setattr(chaos, "_hermite_image", _perturbed_shift_at((1, 2))),
        "adjoint",
    ),
    "gram factor + 1 at q = 1": (
        lambda mp: mp.setattr(chaos, "_gram_factor", lambda b, real=chaos._gram_factor: real(b) + 1),
        "adjoint",
    ),
    # The diagonal of the gram matrix, as fock_ops' adjoint check reads it.
    "gram_matrix doubled on H_{2,1}": (
        lambda mp: mp.setattr(fock_ops, "_gram_factor", _doubled_gram_at((2, 1))),
        "adjoint",
    ),
    # The round trip's field, which only the oracle builds.
    "chaos_field re-keys one label": (
        lambda mp: mp.setattr(chaos, "chaos_field", _rekeys_first_label),
        "diagram",
    ),
    # The Laplacian has no boolean key: its eigenvalue fails the case.
    "hodge_laplacian adds u": (
        lambda mp: mp.setattr(
            chaos, "hodge_laplacian", lambda u, real=chaos.hodge_laplacian: real(u) + u
        ),
        None,
    ),
    # Only hodge's model record: the certificate's A + B fails, and the
    # chaos suite's matches, which read fock_ops' columns, still hold.
    "A + B != n I": (lambda mp: mp.setattr(hodge, "_koszul", _clifford_entry_off), None),
}


@pytest.mark.parametrize("stand_in", sorted(CERTIFICATE_STAND_INS))
def test_chaos_certificate_fails_without_each_ingredient(stand_in, fresh_oracles, monkeypatch):
    d, n, k = 2, 3, 2
    for case in (chaos._case_chaos, oracles.chaos_case):
        status, details = case(d, n, k)
        assert status == "pass"
        assert details["adjoint"] is True and "isometry" not in details
    patch, key = CERTIFICATE_STAND_INS[stand_in]
    patch(monkeypatch)
    status, details = _case_reading(stand_in, d, n, k)
    assert status == "fail"
    if key is not None:
        assert details[key] is False
    else:
        assert details["diagram"] and details["dual_diagram"] and details["adjoint"]


# The chaos-truncation case holds for every h: the routes are compared
# on each monomial h^c, one c per relabelling class.  Its oracle is the
# case as it ran on one h drawn from the seed.


@pytest.mark.parametrize("seed", range(4))
def test_truncation_case_agrees_with_the_seeded_oracle(seed):
    # Statuses match, and so do the degrees whenever the drawn h has a
    # wedge partner h_i != 0, i >= 2: without one the drawn defect is 0.
    # At d = 1 there is no 2-form: the drawn case passed on the zero form.
    for d in range(1, 6):
        for n in range(1, 6):
            status, details = chaos._case_chaos_truncation(d, n, n)
            old_status, old = oracles.truncation_case(d, n, n, seed)
            assert old_status == "pass", (d, n)
            if d == 1:
                assert status == "skip" and old["defect_degrees"] == [], n
                continue
            assert (status, details) == ("pass", {"order": n, "defect_degrees": [n]}), (d, n)
            h = oracles.seeded_h(seed, d, n)
            assert old["defect_degrees"] == (details["defect_degrees"] if any(h[1:]) else [])


def _doubled_first_image(which, key, m, real=chaos._hermite_image):
    for i, (image, v) in enumerate(real(which, key, m)):
        yield image, 2 * v if i == 0 else v


def _top_chunk_first_sign_flipped(n, c, real=chaos._top_chunk):
    out = real(n, c)
    if out:
        out[min(out)] *= -1
    return out


# (patch, c, residual): the case must fail at c and render the residual,
# n! times the coefficient of h^c, as a form; None where only the name of
# c is pinned.  At d = n = 3, h^(0,1,0) is the first c whose route one is
# nonzero, and h^(0,4,0) the first of the top chunk.
TRUNCATION_STAND_INS = {
    "doubled_hermite_image": (
        lambda mp: mp.setattr(chaos, "_hermite_image", _doubled_first_image),
        [0, 1, 0],
        "-6*dx1^dx2",
    ),
    "top_chunk_sign_flipped": (
        lambda mp: mp.setattr(chaos, "_top_chunk", _top_chunk_first_sign_flipped),
        [0, 4, 0],
        None,
    ),
    "top_chunk_dropped": (lambda mp: mp.setattr(chaos, "_top_chunk", lambda n, c: {}), [0, 4, 0], None),
}


@pytest.mark.parametrize("stand_in", sorted(TRUNCATION_STAND_INS))
def test_truncation_case_fails_and_names_c_without_each_ingredient(stand_in, monkeypatch):
    patch, c, residual = TRUNCATION_STAND_INS[stand_in]
    assert chaos._case_chaos_truncation(3, 3, 3)[0] == "pass"
    patch(monkeypatch)
    status, details = chaos._case_chaos_truncation(3, 3, 3)
    assert status == "fail" and details["c"] == c and details["residual"] != "0"
    assert residual is None or details["residual"] == residual
    # The degrees are read off the computed routes, never off the expected chunk.
    assert stand_in == "doubled_hermite_image" or details["defect_degrees"] == [3]


# The homotopy certificate (hodge module docstring), on each pattern block
# of every n <= 8: its trace ranks, kernels and harmonic dimension against
# the eliminations they replaced.


@pytest.mark.parametrize("n", range(1, 9))
def test_trace_ranks_equal_the_eliminations(n):
    for mu, _ in weight_patterns(n, n):
        for k in range(n + 1):
            q, dim = n - k, block_dim(mu, k, n - k)
            checks, _, defect = hodge._certificate(mu, k, q)
            assert all(label is None for _, label in checks) and defect == 0, (mu, k)
            rank_lower, rank_raise = (operator_rank(w, mu, k, q) for w in ("lower", "raise"))
            kernels = (dim - rank_lower, dim - rank_raise)
            row = ExactnessRow(k, q, dim, rank_lower, kernels[0], rank_raise, kernels[1], 0)
            assert row == oracles.block_row(mu, k, q), (mu, k)


@pytest.mark.parametrize("n", range(1, 9))
def test_model_record_equals_the_matrix_certificate(n):
    # The certificate read off the Koszul model against the one it
    # replaced, built from operator matrix products (oracles.certificate),
    # and the Gaussian record's matches against the shift matrices of d
    # and δ, on each pattern block of n <= 8.
    dictionary = (("lower = Σ mu_i ε_i", None), ("raise_ = Σ ι_i", None))
    for mu, _ in weight_patterns(n, n):
        for k in range(n + 1):
            q = n - k
            checks, ranks, defect = hodge._certificate(mu, k, q)
            assert checks[:2] == dictionary
            assert (checks[2:], ranks, defect) == oracles.certificate(mu, k, q), (mu, k)
            matches = tuple(
                oracles.hermite_matrix(w, mu, k, q) == oracles.operator_matrix(w, mu, k, q)
                for w in ("lower", "raise")
            )
            assert chaos._chaos_pattern_holds(mu, k, q)[2:4] == matches == (True, True), (mu, k)


def test_a_lower_weight_off_by_one_fails_the_dictionary(monkeypatch):
    # lower on the first label e_(1,1;2) of the block of (2, 1) at k = 2,
    # q = 1 gives 3 e_(1;1,2), not mu_1 = 2 times it: the dictionary names
    # that label, and every Fock-side suite that reads the block fails.
    sig, d, n = ((2, 1), 2, 1), 2, 3
    first = enum_basis(*sig)[0]
    cases = (hodge._case_weitzenboeck, hodge._case_exactness, hodge._case_split)
    cases += (rep_theory._case_decomposition,)
    assert all(case(d, n, 2)[0] == "pass" for case in cases)

    def entry(s, labels, cod):
        return _row_0_of_column_0(s, labels, cod) if s == sig else None

    off = _entry_changed(hodge.lower, -1, entry)
    monkeypatch.setattr(hodge, "lower", off)
    clear_caches()
    assert off(FockTensor._trusted(sig, {first: 1})).coeffs == {enum_basis((2, 1), 1, 2)[0]: 3}
    assert hodge._certificate(*sig)[0][0] == ("lower = Σ mu_i ε_i", first)
    status, details = hodge._case_weitzenboeck(d, n, 2)
    assert status == "fail" and details["defect"] == "1"
    for case in cases[1:]:
        status, details = case(d, n, 2)
        assert status == "fail", case.__name__
        failure = details["failed"], details["label"]
        assert failure == ("lower = Σ mu_i ε_i", "(1,1;2)"), case.__name__


def _epsilon_sign_flipped(which, r, q, real=fock_ops._columns):
    """The model's columns with the sign of e_1 ^ e_A flipped in the first
    column of ε, A = {2}, at (r, q) = (2, 1)."""
    cols = real(which, r, q)
    if (which, r, q) == ("lower", 2, 1):
        assert cols[0] == {(0, 0): 1}
        cols = [{(0, 0): -1}, *cols[1:]]
    return cols


def test_a_sign_flipped_in_the_model_fails_its_identities(monkeypatch):
    # With one sign of ε wrong, the model's own identities fail, checked
    # once per (r, q) with formal weights: A + B = n I and L L = 0 through
    # the 1-subsets of {1, 2}, and A + B = n I on the 2-subsets, whose A
    # reads the flipped column.  The certificate names a label of the block
    # of (2, 1), and split fails.  lower and raise_ no longer give the
    # model's columns either, so the defect is read off them: it is 0.
    monkeypatch.setattr(fock_ops, "_columns", _epsilon_sign_flipped)
    clear_caches()
    assert [c for _, _, c in fock_ops._koszul(2, 1)[2]] == [0, 0, None]
    assert [c for _, _, c in fock_ops._koszul(2, 2)[2]] == [0, None, None]
    checks, ranks, defect = hodge._certificate((2, 1), 2, 1)
    assert dict(checks)["plus + minus = t"] == enum_basis((2, 1), 2, 1)[0]
    assert checks[0] == ("lower = Σ mu_i ε_i", enum_basis((2, 1), 2, 1)[0])
    assert ranks is None and defect == 0
    assert hodge._case_split(2, 3, 2)[0] == "fail"


# The decomposition certificate (rep_theory module docstring), on each
# pattern block of every n <= 6: 164 blocks.


def _hook_kostka(r, q):
    """(C(r, q), C(r-1, q-1), C(r-1, q)): the block of a pattern with r
    parts and its two pieces."""
    return comb(r, q), comb(r - 1, q - 1) if q else 0, comb(r - 1, q)


@pytest.mark.parametrize("n", range(1, 7))
def test_certificate_equals_the_elimination_oracle(n):
    blocks = [(mu, k, n - k) for mu, _ in weight_patterns(n, n) for k in range(n + 1)]
    for mu, k, q in blocks:
        certified = rep_theory._pattern_block(mu, k, q)
        assert certified == oracles.pattern_block(mu, k, q), (mu, k)
        assert certified == (*_hook_kostka(len(mu), q), True), (mu, k)
    assert len(blocks) == [2, 6, 12, 25, 42, 77][n - 1]


def _moved_copies(n, j):
    """{S: embed(e_(1..j; j+1..n)) over R^n moved onto the j-set S}."""
    g = embed(FockTensor.basis(n, rep_theory._distinct_label(n, j)))
    sets = combinations(range(1, n + 1), j)
    return {s: permute(g, rep_theory.position_permutation(n, j, s)) for s in sets}


def _in_full(vec, moved, n):
    """The full tensor with position-set coordinates vec."""
    return FullTensor._trusted((n, n), lincomb((c, moved[s].coeffs) for s, c in vec.items()))


@pytest.mark.parametrize("n", range(1, 8))
def test_family_check_in_position_sets_equals_the_full_tensor_oracle(n):
    # The position-set model of T agrees with T on the moved generator
    # for every j-set S of slots, and both family checks hold.
    for j in range(n + 1):
        moved = _moved_copies(n, j)
        for s, v in moved.items():
            image = rep_theory._set_transposition_sum(n, {s: 1})
            assert _in_full(image, moved, n) == oracles.transposition_sum(v), (j, s)
        assert rep_theory._family_holds(n, j) and oracles.family_holds(n, j), j


@pytest.mark.parametrize("n", range(1, 7))
def test_set_permute_is_the_slot_action_on_the_moved_copies(n):
    # The premise of position-set coordinates: the moved copies have
    # disjoint supports, so they are a basis of the orbit with C(n, j)
    # coordinates, and _set_permute is permute on them.  Every p in S_n
    # for n <= 5, the generators (1 2) and (1 ... n) at n = 6.
    if n <= 5:
        perms = list(symmetric_group(n))
    else:
        perms = [Permutation.transposition(n, 1, 2), Permutation((*range(2, n + 1), 1))]
    for j in range(n + 1):
        moved = _moved_copies(n, j)
        supports = [set(v.coeffs) for v in moved.values()]
        assert all(supports) and len(set().union(*supports)) == sum(map(len, supports))
        orbit = rep_theory.orbit_span(rep_theory._distinct_label(n, j), n)
        assert len(moved) == comb(n, j) == orbit.dim
        for s, v in moved.items():
            for p in perms:
                image = rep_theory._set_permute({s: 1}, p)
                assert _in_full(image, moved, n) == permute(v, p), (j, s, p)


def _content_off_at(sig, real=rep_theory._hook_content):
    return lambda a, b: real(a, b) + ((a, b) == sig)


def _content_as_at(sig, other, real=rep_theory._hook_content):
    return lambda a, b: real(*other) if (a, b) == sig else real(a, b)


def _set_sum_drops_last_pair(n, vec, pairs=None, real=rep_theory._set_transposition_sum):
    return real(n, vec, pairs if pairs is None else list(pairs)[:-1])


def _set_sum_with_unread_coordinate(n, vec, pairs=None, real=rep_theory._set_transposition_sum):
    """The witness sums of j = 1 at n = 3 with one more unit on the slot
    set {2}; T itself (pairs=None) is left as it is."""
    out = real(n, vec, pairs)
    if pairs is not None and n == 3 and (1,) in vec:
        out = lincomb(((1, out), (1, {(2,): 1})))
    return out


def _doubled(t, real=fock_ops.lower):
    return real(t).scale(2)


def _lower_rank_one_short(which, *sig, real=operator_rank):
    rank = real(which, *sig)
    return rank - 1 if which == "lower" and rank else rank


# (patch, k) on d = n = 3.  At k = 1 (q = 2): Z+ = (T - c(2, 1)) (T - c(3, 0)),
# the lower witness at j = 2 is e - (2 3) e, and lower on H_{1,2}, whose
# rank is dim_minus, has rank 0 on the block of (2, 1) and rank 1 on that
# of (1, 1, 1), where the Kostka numbers are (3, 2, 1).
# At k = 2 (q = 1) the family of j = 3 is the trivial module, so the
# second root c(4, -1) of Z+ kills nothing: set to the root c(2, 1) of Z-,
# only the coprimality check of step 2 sees it.  The ranks come from
# hodge, so a doubled rep_theory.lower shows only in the sorted-key
# reading of the lower witness.  At k = 2 the family of j = 1 is read too:
# its witnesses are read on the slot sets {1} and {3}, so a coordinate on
# {2} fails only the adjacent transpositions.
DECOMPOSITION_STAND_INS = {
    "wrong content in Z+": (
        lambda mp: mp.setattr(rep_theory, "_hook_content", _content_off_at((3, 0))),
        1,
    ),
    "witness with a term dropped": (
        lambda mp: mp.setattr(rep_theory, "_set_transposition_sum", _set_sum_drops_last_pair),
        1,
    ),
    "Fock side off": (lambda mp: mp.setattr(rep_theory, "lower", _doubled), 1),
    "coordinate on an unread set": (
        lambda mp: mp.setattr(
            rep_theory, "_set_transposition_sum", _set_sum_with_unread_coordinate
        ),
        2,
    ),
    "rank one short": (
        lambda mp: mp.setattr(rep_theory, "operator_rank", _lower_rank_one_short),
        1,
    ),
    "Z+ and Z- share a root": (
        lambda mp: mp.setattr(rep_theory, "_hook_content", _content_as_at((4, -1), (2, 1))),
        2,
    ),
}
# The rep case at k = 1 reads the witness check of j = 1 (_family_holds):
# these stand-ins fail it, the others leave it passing.
REP_READS_TOO = {"witness with a term dropped", "Fock side off", "coordinate on an unread set"}


@pytest.mark.parametrize("stand_in", sorted(DECOMPOSITION_STAND_INS))
def test_decomposition_certificate_fails_without_each_step(stand_in, monkeypatch):
    patch, k = DECOMPOSITION_STAND_INS[stand_in]
    d = n = 3
    r, q = 3, n - k
    assert rep_theory._pattern_block((1, 1, 1), k, q) == (*_hook_kostka(r, q), True)
    assert rep_theory._case_decomposition(d, n, k)[0] == "pass"
    assert rep_theory._case_rep(d, n, 1)[0] == "pass"
    clear_caches()
    patch(monkeypatch)
    assert rep_theory._pattern_block((1, 1, 1), k, q)[3] is False
    status, details = rep_theory._case_decomposition(d, n, k)
    assert status == "fail"
    rep_status, rep_details = rep_theory._case_rep(d, n, 1)
    expected = ("fail", "bad") if stand_in in REP_READS_TOO else ("pass", "ok")
    assert (rep_status, rep_details["witnesses"]) == expected
    if stand_in == "rank one short":
        assert (details["pattern"], details["expected"]) == ([1, 1, 1], [3, 2, 1])
    else:
        assert "pattern" not in details


def _recording(fn, calls):
    return lambda *args: calls.append(args) or fn(*args)


def test_verify_path_builds_no_product_and_no_gram_matrix(monkeypatch):
    # Every Fock and Gaussian identity of a serial run is read off the
    # Koszul model: no LinearMap product, operator_matrix or gram_matrix
    # is called, through any hodgefock module that binds them.
    calls = []
    real_product = LinearMap.__matmul__
    monkeypatch.setattr(LinearMap, "__matmul__", lambda m, o: calls.append("@") or real_product(m, o))
    for real in (fock_ops.operator_matrix, fock_ops.gram_matrix):
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "hodgefock" and getattr(mod, real.__name__, None) is real:
                monkeypatch.setattr(mod, real.__name__, _recording(real, calls))
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    assert run_verify(VerifyConfig(suite="all", max_dim=5, max_n=6)).status == "pass"
    assert not calls


REP_GRID = [(d, n, k) for d in range(1, 7) for n in range(1, 7) for k in range(n + 1)]


def _fixed_by_average(t, positions, sign):
    """Whether the average (sign 1) or the signed average (sign -1) over
    the slot permutations of `positions` fixes t."""
    return (sym_subset if sign == 1 else alt_subset)(t, positions) == t


def _fixed_by_generators(t, positions, sign):
    """Whether each adjacent transposition of the consecutive `positions`
    maps t to sign * t.  They generate the permutations of `positions`, so
    this is _fixed_by_average without its m!-term sums."""
    return all(
        permute(t, Permutation.transposition(t.n, i, i + 1)) == t.scale(sign)
        for i in positions[:-1]
    )


def _fixed(t, positions, sign):
    # At n = 6 the 720-term averages cost seconds per case.
    return (_fixed_by_average if t.n <= 5 else _fixed_by_generators)(t, positions, sign)


def rep_oracle(d, n, k):
    """The rep case in the full tensor power: the orbit spanned and split
    by elimination, the witnesses checked by the averaging symmetrizers
    (by their generators at n = 6) and the characters compared on all n!
    permutations."""
    q = n - k
    if n > d:
        return "skip", {"reason": "no distinct-index label", "dim": d, "n": n}
    b = rep_theory._distinct_label(n, k)
    orbit = rep_theory.orbit_span(b, d)
    plus, minus = rep_theory.orbit_split_spaces(b, orbit)
    dim_plus = comb(n - 1, q - 1) if q >= 1 else 0
    details = {
        "label": b.render(),
        "orbit_dim": orbit.dim,
        "split_dims": [plus.dim, minus.dim],
        "expected": [comb(n, k), dim_plus, comb(n - 1, q)],
    }
    ok = orbit.dim == comb(n, k) and (plus.dim, minus.dim) == (dim_plus, comb(n - 1, q))
    if k >= 1 and q >= 1:
        vplus, vminus = oracles.witnesses(b, d)
        wit_ok = (
            not vplus.is_zero()
            and not vminus.is_zero()
            and orbit.contains(vplus)
            and orbit.contains(vminus)
            and _fixed(vplus, range(1, k + 2), 1)
            and _fixed(vplus, range(k + 2, n + 1), -1)
            and _fixed(vminus, range(k, n + 1), -1)
            and _fixed(vminus, range(1, k), 1)
        )
        details["witnesses"] = "ok" if wit_ok else "bad"
        ok = ok and wit_ok
    if n <= 4:
        char_ok = all(
            action_trace(orbit, p) == action_trace(plus, p) + action_trace(minus, p)
            for p in symmetric_group(n)
        )
        details["character_additive"] = char_ok
        ok = ok and char_ok
    rep_label = rep_theory._repeated_label(n, k)
    if rep_label is not None:
        details["degenerate"] = {
            "label": rep_label.render(),
            "orbit_dim": rep_theory.orbit_span(rep_label, d).dim,
            "note": "degenerate-orbit",
        }
    return ("pass" if ok else "fail"), details


@pytest.mark.parametrize("d, n, k", REP_GRID)
def test_rep_case_agrees_with_the_averaging_oracle(d, n, k):
    case = rep_theory._case_rep(d, n, k)
    assert case[0] == ("skip" if n > d else "pass")
    assert case == rep_oracle(d, n, k)


def test_rep_character_check_applies_t_once_per_set(monkeypatch, capsys):
    # Serial rep at d, n <= 4: each case reads T's diagonal once and builds
    # T e_s once per k-set s, 82 calls over the cases with n <= d; the
    # character check reads T(p e_s) off those, and _family_holds(n, j)
    # adds 2 + [j > 0] + [j < n] per (n, j), 48 more.
    calls = []
    real = rep_theory._set_transposition_sum
    monkeypatch.setattr(
        rep_theory, "_set_transposition_sum", lambda *args: calls.append(args[0]) or real(*args)
    )
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    assert cli.main(["verify", "rep", "--max-dim", "4", "--max-n", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert len(calls) == 82 + 48


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slot_symmetry_by_generators_equals_the_averages(n):
    # The oracle's n = 6 route against the averages, on the witnesses and
    # the embedded label, over every slot range and both signs; some of
    # these fix the vector and some do not.
    checks = []
    for k in range(1, n):
        b = rep_theory._distinct_label(n, k)
        vplus, vminus = oracles.witnesses(b, n)
        w = embed(FockTensor.basis(n, b))
        for t in (vplus, vminus, w):
            for lo in range(1, n + 1):
                for hi in range(lo + 1, n + 2):
                    for sign in (1, -1):
                        by_average = _fixed_by_average(t, range(lo, hi), sign)
                        assert _fixed_by_generators(t, range(lo, hi), sign) == by_average
                        checks.append(by_average)
    assert True in checks and False in checks


@st.composite
def set_vectors(draw, max_n=4):
    """(n, j, vec): n <= max_n and vec in the position-set coordinates of
    the orbit of embed(e_(1..j; j+1..n))."""
    n = draw(st.integers(1, max_n))
    j = draw(st.integers(0, n))
    sets = list(combinations(range(1, n + 1), j))
    chosen = draw(st.lists(st.sampled_from(sets), max_size=4))
    return n, j, {s: draw(st.integers(-3, 3).filter(bool)) for s in chosen}


def _set_coordinates(t, moved):
    """The position-set coordinates of a full tensor t in the orbit: each
    copy has coefficients +-1 on its own keys, so one key reads its
    coordinate."""
    out = {}
    for s, v in moved.items():
        key = min(v.coeffs)
        if t.coeffs.get(key, 0):
            out[s] = Fraction(t.coeffs[key], v.coeffs[key])
    return out


@given(set_vectors())
def test_slot_symmetry_in_set_coordinates_matches_the_averagers(drawn):
    # The first half of the witness check of both suites (_embeds):
    # vec is symmetric (sign 1) or alternating (sign -1) in slots lo..hi
    # when each (i i+1), lo <= i < hi, maps it to sign * vec through
    # _set_permute.  On every slot range, the empty and one-slot ones
    # included, and on vec averaged over the range first, this must
    # agree with the averagers on the full tensor.
    n, j, vec = drawn
    moved = _moved_copies(n, j)
    v = _in_full(vec, moved, n)
    for lo in range(1, n + 2):
        for hi in range(lo - 1, n + 1):
            positions = range(lo, hi + 1)
            adjacent = [Permutation.transposition(n, i, i + 1) for i in range(lo, hi)]
            for t in (v, sym_subset(v, positions), alt_subset(v, positions)):
                w = _set_coordinates(t, moved)
                assert (_in_full(w, moved, n) - t).is_zero()
                for sign, average in ((1, sym_subset), (-1, alt_subset)):
                    target = {s: sign * c for s, c in w.items()}
                    by_generators = all(rep_theory._set_permute(w, p) == target for p in adjacent)
                    assert by_generators == (average(t, positions) == t), (lo, hi, sign)


def _unsigned_set_permute(vec, p):
    """_set_permute without its sign: the copy at S goes to the copy at p(S)."""
    return {tuple(sorted(p.images[i - 1] for i in s)): c for s, c in vec.items()}


# (patch, ks): on d = n the case must fail at each k in ks(n).  At q <= 1
# at most one slot lies outside S, so every sign of _set_permute is 1 and
# the unsigned action is the true one.  c(k+1, q-1) is an eigenvalue of T
# on the orbit only for q >= 1, and witnesses exist for 1 <= k < n.
REP_STAND_INS = {
    "unsigned_set_action": (
        lambda mp, k, q: mp.setattr(rep_theory, "_set_permute", _unsigned_set_permute),
        lambda n: range(n - 1),
    ),
    "shifted_hook_content": (
        lambda mp, k, q: mp.setattr(rep_theory, "_hook_content", _content_off_at((k + 1, q - 1))),
        lambda n: range(n),
    ),
    "dropped_witness_pair": (
        lambda mp, k, q: mp.setattr(rep_theory, "_set_transposition_sum", _set_sum_drops_last_pair),
        lambda n: range(1, n),
    ),
}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("stand_in", sorted(REP_STAND_INS))
def test_rep_case_fails_with_each_stand_in(stand_in, n, monkeypatch):
    patch, ks = REP_STAND_INS[stand_in]
    # The case reads the cached _family_holds, so each run starts with
    # empty caches: none may hold what the other side computed.
    for k in ks(n):
        clear_caches()
        assert rep_theory._case_rep(n, n, k)[0] == "pass"
        with monkeypatch.context() as mp:
            patch(mp, k, n - k)
            clear_caches()
            assert rep_theory._case_rep(n, n, k)[0] == "fail", k


@pytest.mark.parametrize("n", range(1, 8))
def test_rep_split_dims_equal_the_eliminations(n):
    # The rep case solves its split from T's trace on the orbit; the ranks
    # of T minus each hook content over the orbit's sets are the
    # elimination that it replaced.
    for k in range(n + 1):
        dims = list(oracles.rep_split_dims(n, k))
        for d in range(n, 8):
            status, details = rep_theory._case_rep(d, n, k)
            assert status == "pass" and details["split_dims"] == dims, (d, k)


def _set_sum_with_diagonal_off_at(s0, real=rep_theory._set_transposition_sum):
    """T with one more unit on its diagonal at the slot set s0."""

    def stand_in(n, vec, pairs=None):
        out = real(n, vec, pairs)
        return out if pairs is not None else lincomb(((1, out), (vec.get(s0, 0), {s0: 1})))

    return stand_in


@pytest.mark.parametrize("k", range(1, 5))
def test_rep_split_reads_the_diagonal_of_t(k, monkeypatch):
    # With _family_holds cached from a passing run, only the trace sees a
    # diagonal entry off by one at the set 1..k, which the case reads.  At
    # n = 5 no class representative is compared either.
    n = 5
    status, details = rep_theory._case_rep(n, n, k)
    assert status == "pass" and details["split_dims"] == details["expected"][1:]
    s0 = tuple(range(1, k + 1))
    monkeypatch.setattr(rep_theory, "_set_transposition_sum", _set_sum_with_diagonal_off_at(s0))
    status, details = rep_theory._case_rep(n, n, k)
    assert status == "fail" and details["witnesses"] == "ok"
    assert details["split_dims"] != details["expected"][1:]


def _written_out(column, n):
    """A column of oracles.repeated_orbit as a full tensor over R^n: on
    each key, 1 in its slots and 2, 3, ... alternating in the others."""
    out = {}
    for ones, c in column.items():
        rest = [r for r in range(1, n + 1) if r not in ones]
        for sigma in permutations(range(2, len(rest) + 2)):
            key = [1] * n
            for r, m in zip(rest, sigma):
                key[r - 1] = m
            out[tuple(key)] = perm_sign(sigma) * c
    return FullTensor(n, n, out)


@pytest.mark.parametrize("n", range(2, 8))
def test_repeated_orbit_is_the_orbit_of_the_repeated_label(n):
    # The premise of the degenerate orbit's set coordinates: the column
    # of the k-set S, written out, is the copy of embed(b) at S over k!,
    # so its rank is dim orbit_span(b).  The copies are compared for
    # n <= 6; at n = 7 only the ranks, as the n!-key copies cost seconds.
    for k in range(1, n + 1):
        b = rep_theory._repeated_label(n, k)
        columns = oracles.repeated_orbit(n, k)
        sets = list(combinations(range(1, n + 1), k))
        assert len(columns) == len(sets) == comb(n, k)
        if n <= 6:
            e = embed(FockTensor.basis(n, b))
            for s, column in zip(sets, columns):
                copy = permute(e, rep_theory.position_permutation(n, k, s))
                assert _written_out(column, n).scale(factorial(k)) == copy, (k, s)
        rank = matrix_rank(columns)
        assert rank == rep_theory.orbit_span(b, n).dim == rep_theory._degenerate_orbit_dim(b, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_raise_on_the_block_of_ones_is_the_repeated_orbit(n):
    # A label of the block of 1^n, keyed by the complement of its
    # alternating set, is a set of slots; so keyed, raise_ there is the
    # repeated label's orbit, and the rep case reads its rank as a trace.
    ones, slots = (1,) * n, range(1, n + 1)

    def key(label):
        return tuple(i for i in slots if i not in label.alt)

    for k in range(1, n + 1):
        q = n - k
        columns = oracles.repeated_orbit(n, k)
        if q == 0:
            assert matrix_rank(columns) == 1
            continue
        rows = enum_basis(ones, k + 1, q - 1)
        m = operator_matrix("raise", ones, k, q)
        by_set = {
            key(label): {key(rows[r]): v for r, v in column.items()}
            for label, column in zip(enum_basis(ones, k, q), m.columns())
        }
        assert by_set == dict(zip(combinations(slots, k), columns)), k
        assert operator_rank("raise", ones, k, q) == matrix_rank(columns), k


def _raise_sign_flipped_on(sig, real=hodge.raise_):
    """raise_ with the sign of one entry flipped on the block sig: the
    first entry of its image of the block's first label."""
    col = enum_basis(*sig)[0]
    row = min(real(FockTensor._trusted(sig, {col: 1})).coeffs)
    def entry(s, labels, cod):
        return (row, col) if s == sig else None

    return _entry_changed(real, 1, entry, lambda v: -v)


def _minus_dropped(t, real=hodge.hodge_split):
    plus, minus = real(t)
    return plus, minus.scale(0)


# {(d, n, k): stand-in}: raise_ on the block of 1^n at (k, q) with one sign
# flipped fails that block's dictionary, so it has no trace rank.  At
# q = 0 the orbit is one copy, and a hodge_split without its minus piece
# predicts 0.
DEGENERATE_STAND_INS = {
    (3, 3, 1): (hodge, "raise_", _raise_sign_flipped_on(((1, 1, 1), 1, 2))),
    (3, 3, 2): (hodge, "raise_", _raise_sign_flipped_on(((1, 1, 1), 2, 1))),
    (4, 4, 3): (hodge, "raise_", _raise_sign_flipped_on(((1, 1, 1, 1), 3, 1))),
    (2, 2, 2): (rep_theory, "hodge_split", _minus_dropped),
}


@pytest.mark.parametrize("d, n, k", DEGENERATE_STAND_INS)
def test_rep_case_checks_the_degenerate_orbit(d, n, k, monkeypatch):
    # The rank of the repeated label's orbit is C(n-1,q-1) [plus != 0] +
    # C(n-1,q) [minus != 0]; a wrong orbit, or a wrong prediction, fails
    # the case and reports the predicted dimension.
    status, details = rep_theory._case_rep(d, n, k)
    assert status == "pass" and "expected" not in details["degenerate"]
    true_dim = details["degenerate"]["orbit_dim"]
    assert true_dim == rep_theory._degenerate_orbit_dim(rep_theory._repeated_label(n, k), d) > 0
    monkeypatch.setattr(*DEGENERATE_STAND_INS[d, n, k])
    clear_caches()
    status, details = rep_theory._case_rep(d, n, k)
    degenerate = details["degenerate"]
    assert status == "fail" and degenerate["orbit_dim"] != degenerate["expected"]
    if k < n:
        assert (degenerate["orbit_dim"], degenerate["expected"]) == (None, true_dim)
