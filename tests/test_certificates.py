"""Whole-block certificates of the split and chaos suites.

The split is proved by integer identities of the matrices of
split_matrices, and the chaos isometry at q = 0 by three facts per label
plus a one-variable Hermite moment table.  The slow checks they replaced
stay here as oracles, and a stand-in for each ingredient shows that the
case fails without it.
"""

import inspect
import sys

import pytest

import hodgefock.cli as cli
import hodgefock.hodge as hodge
from hodgefock import FockTensor, chaos_field, enum_basis, gaussian_inner, inner, lower, raise_
from hodgefock.chaos import HermiteExpansion
from hodgefock.cli import VerifyConfig, run_verify
from hodgefock.fock_ops import gram_matrix, operator_matrix
from hodgefock.hodge import hodge_split

GRID = [(d, n, k) for d in (1, 2, 3) for n in range(1, 5) for k in range(n + 1)]


@pytest.fixture(autouse=True)
def fresh_caches():
    operator_matrix.cache_clear()
    cli._hermite_table_holds.cache_clear()
    yield
    operator_matrix.cache_clear()
    cli._hermite_table_holds.cache_clear()


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


@pytest.mark.parametrize("d, n, k", GRID)
def test_split_case_agrees_with_the_per_label_oracle(d, n, k):
    status, details = cli._case_split(d, n, k, 0)
    assert split_oracle(d, n, k)
    assert status == "pass"
    assert details == {"dim": len(enum_basis(d, k, n - k))}


@pytest.mark.parametrize("d, n, k", GRID)
def test_chaos_isometry_agrees_with_the_all_pairs_oracle(d, n, k):
    status, details = cli._case_chaos(d, n, k, 0)
    assert status == "pass"
    if k == n:
        assert isometry_oracle(d, n)
        assert details["isometry"] is True
    else:
        assert "isometry" not in details


def _perturbed_a(d, k, q, real):
    a, b = real(d, k, q)
    entries = dict(a.coeffs)
    entries[(0, 2)] = entries.get((0, 2), 0) + 1
    return type(a)._trusted(a.shape(), entries), b


def test_perturbed_split_matrix_fails_and_names_the_label(monkeypatch):
    # One entry of A, in column 2, changed through the shared helper:
    # both the split and the weitzenboeck case fail, and the split case
    # names the first identity and the label of the broken column.
    d, n, k = 3, 3, 1
    labels = enum_basis(d, k, n - k)
    assert cli._case_split(d, n, k, 0) == ("pass", {"dim": len(labels)})
    assert cli._case_weitzenboeck(d, n, k, 0)[0] == "pass"
    real = hodge.split_matrices
    stand_in = lambda d, k, q: _perturbed_a(d, k, q, real)  # noqa: E731
    monkeypatch.setattr(hodge, "split_matrices", stand_in)
    monkeypatch.setattr(cli, "split_matrices", stand_in)
    status, details = cli._case_split(d, n, k, 0)
    assert status == "fail"
    assert details == {
        "dim": len(labels),
        "failed": "plus + minus = t",
        "label": labels[2].render(),
    }
    status, details = cli._case_weitzenboeck(d, n, k, 0)
    assert status == "fail" and details["defect"] == "1"


def test_swapped_split_matrices_fail_past_the_sum(monkeypatch):
    # (B, A) still sums to n I, so the next identity is the one that fails.
    real = cli.split_matrices
    monkeypatch.setattr(cli, "split_matrices", lambda d, k, q: real(d, k, q)[::-1])
    status, details = cli._case_split(3, 3, 1, 0)
    assert status == "fail"
    assert details["failed"] == "lower(plus) = 0"
    assert details["label"] in [b.render() for b in enum_basis(3, 1, 2)]


def test_split_case_checks_hodge_split_itself(monkeypatch):
    assert cli._case_split(2, 2, 1, 0)[0] == "pass"

    def doubled_plus(t):
        plus, minus = hodge_split(t)
        return plus.scale(2), minus

    monkeypatch.setattr(cli, "hodge_split", doubled_plus)
    status, details = cli._case_split(2, 2, 1, 0)
    assert status == "fail"
    assert details["failed"] == "hodge_split"
    assert details["label"] in [b.render() for b in enum_basis(2, 1, 1)]


def _from_poly_with(edit):
    real = HermiteExpansion.from_poly.__func__

    def stand_in(cls, p):
        h = real(cls, p)
        return cls._trusted((h.dim,), edit(h))

    return classmethod(stand_in)


def _wrong_he_row(real):
    return lambda a: ((2, 1),) if a == 2 else real(a)


CHAOS_STAND_INS = {
    # caught by the single-key check, and by gaussian_inner(f, f)
    "from_poly adds a key": lambda mp: mp.setattr(
        HermiteExpansion, "from_poly", _from_poly_with(lambda h: {**h.coeffs, (0,) * h.dim: 1})
    ),
    # caught by the single-key check alone: the weights prod a! are symmetric
    "from_poly reverses keys": lambda mp: mp.setattr(
        HermiteExpansion,
        "from_poly",
        _from_poly_with(lambda h: {key[::-1]: c for key, c in h.coeffs.items()}),
    ),
    # caught by the moment table alone, which reads cli's _he_coeffs
    "He_2 = x^2": lambda mp: mp.setattr(cli, "_he_coeffs", _wrong_he_row(cli._he_coeffs)),
    "gram factor + 1": lambda mp: mp.setattr(
        cli, "_gram_factor", lambda b, real=cli._gram_factor: real(b) + 1
    ),
    # doubles both sides of the adjoint trials, so only the isometry sees it
    "gaussian_inner doubled": lambda mp: mp.setattr(
        cli, "gaussian_inner", lambda u, v, real=cli.gaussian_inner: 2 * real(u, v)
    ),
}


@pytest.mark.parametrize("stand_in", sorted(CHAOS_STAND_INS))
def test_chaos_isometry_fails_without_each_ingredient(stand_in, monkeypatch):
    d, n = 2, 3
    status, details = cli._case_chaos(d, n, n, 0)
    assert status == "pass" and details["isometry"] is True
    cli._hermite_table_holds.cache_clear()
    CHAOS_STAND_INS[stand_in](monkeypatch)
    status, details = cli._case_chaos(d, n, n, 0)
    assert status == "fail" and details["isometry"] is False


def test_operator_matrix_is_built_once_and_never_mutated(monkeypatch):
    # Record every (which, d, k, q) asked for during a serial run, through
    # every hodgefock module that binds operator_matrix.
    asked = set()
    signature = inspect.signature(operator_matrix.__wrapped__)

    def recording(*args, **kwargs):
        asked.add(tuple(signature.bind(*args, **kwargs).arguments.values()))
        return operator_matrix(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        binds = getattr(mod, "operator_matrix", None) is operator_matrix
        if name.split(".")[0] == "hodgefock" and binds:
            monkeypatch.setattr(mod, "operator_matrix", recording)
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    report = run_verify(VerifyConfig(suite="all", max_dim=3, max_n=3))
    assert report.status == "pass"
    info = operator_matrix.cache_info()
    assert asked and info.hits > 0
    assert info.misses == info.currsize == len(asked)
    for key in asked:
        assert operator_matrix(*key) == operator_matrix.__wrapped__(*key), key
    assert operator_matrix.cache_info().misses == len(asked)
