"""Whole-block certificates of the split and chaos suites.

The split is proved by integer identities of the matrices of
split_matrices.  The chaos suite is proved in Hermite coordinates: the
dictionary on one field per block, the shift matrices of hermite_matrix
against operator_matrix, one-variable ladder and moment tables, and the
Fock adjointness.  The slow checks they replaced stay here as oracles,
and a stand-in for each ingredient shows that the case fails without it.
"""

import inspect
import sys

import pytest

import hodgefock.chaos as chaos
import hodgefock.cli as cli
import hodgefock.hodge as hodge
from hodgefock import (
    FockTensor,
    chaos_field,
    codifferential,
    enum_basis,
    exterior_derivative,
    gaussian_inner,
    hodge_laplacian,
    inner,
    lower,
    raise_,
    random_tensor,
)
from hodgefock.chaos import FormField, HermiteExpansion
from hodgefock.cli import VerifyConfig, run_verify
from hodgefock.fock_ops import _wedge_insert, gram_matrix, operator_matrix
from hodgefock.hodge import hodge_split

GRID = [(d, n, k) for d in (1, 2, 3) for n in range(1, 5) for k in range(n + 1)]

CACHES = (
    operator_matrix,
    cli._hermite_table_holds,
    cli._ladder_tables_hold,
    cli._hermite_matches,
    cli._chaos_block_holds,
)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


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
        rng = cli._rng(seed, "chaos", d, n, k)
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
    status, details = cli._case_split(d, n, k, 0)
    assert split_oracle(d, n, k)
    assert status == "pass"
    assert details == {"dim": len(enum_basis(d, k, n - k))}


@pytest.mark.parametrize("d, n, k", GRID)
def test_chaos_case_agrees_with_the_per_label_oracle(d, n, k):
    case = cli._case_chaos(d, n, k, 0)
    assert case[0] == "pass"
    assert case == chaos_oracle(d, n, k, 0)


@pytest.mark.parametrize("d, n, k", GRID)
def test_chaos_isometry_agrees_with_the_all_pairs_oracle(d, n, k):
    status, details = cli._case_chaos(d, n, k, 0)
    assert status == "pass"
    if k == n:
        assert isometry_oracle(d, n)
        assert details["isometry"] is True
    else:
        assert "isometry" not in details


def _bumped(m, key=(0, 0)):
    """The matrix m with the entry at key raised by 1."""
    entries = dict(m.coeffs)
    entries[key] = entries.get(key, 0) + 1
    return type(m)._trusted(m.shape(), entries)


def _perturbed_a(d, k, q, real):
    a, b = real(d, k, q)
    return _bumped(a, (0, 2)), b


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
    # caught by the dictionary check, and by gaussian_inner(f, f)
    "from_poly adds a key": lambda mp: mp.setattr(
        HermiteExpansion, "from_poly", _from_poly_with(lambda h: {**h.coeffs, (0,) * h.dim: 1})
    ),
    # caught by the dictionary check alone: the weights prod a! are symmetric
    "from_poly reverses keys": lambda mp: mp.setattr(
        HermiteExpansion,
        "from_poly",
        _from_poly_with(lambda h: {key[::-1]: c for key, c in h.coeffs.items()}),
    ),
    # caught by the moment table, which reads cli's _he_coeffs
    "He_2 = x^2": lambda mp: mp.setattr(cli, "_he_coeffs", _wrong_he_row(cli._he_coeffs)),
    "gram factor + 1": lambda mp: mp.setattr(
        cli, "_gram_factor", lambda b, real=cli._gram_factor: real(b) + 1
    ),
    # doubles the one gaussian_inner(f, f) per block, which only the
    # isometry runs (and the adjoint, which rests on the isometry)
    "gaussian_inner doubled": lambda mp: mp.setattr(
        cli, "gaussian_inner", lambda u, v, real=cli.gaussian_inner: 2 * real(u, v)
    ),
}


@pytest.mark.parametrize("stand_in", sorted(CHAOS_STAND_INS))
def test_chaos_isometry_fails_without_each_ingredient(stand_in, monkeypatch):
    d, n = 2, 3
    status, details = cli._case_chaos(d, n, n, 0)
    assert status == "pass" and details["isometry"] is True
    clear_caches()
    CHAOS_STAND_INS[stand_in](monkeypatch)
    status, details = cli._case_chaos(d, n, n, 0)
    assert status == "fail" and details["isometry"] is False


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


def _both(name, stand_in):
    # cli runs the operator in the ladder tables, chaos in hodge_laplacian.
    def patch(mp):
        mp.setattr(cli, name, stand_in)
        mp.setattr(chaos, name, stand_in)

    return patch


def _perturbed_matrix(op):
    def stand_in(which, d, k, q, real=operator_matrix):
        m = real(which, d, k, q)
        return _bumped(m) if which == op and m.coeffs else m

    return stand_in


def _perturbed_shift_at(sig, real=cli.hermite_matrix):
    """hermite_matrix with one entry of δ on the block sig = (k, q) changed."""

    def stand_in(which, d, k, q):
        m = real(which, d, k, q)
        return _bumped(m) if (which, k, q) == ("raise", *sig) else m

    return stand_in


def _doubled_gram_at(sig):
    def stand_in(d, k, q, real=gram_matrix):
        g = real(d, k, q)
        return g.scale(2) if (k, q) == sig else g

    return stand_in


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
    "exterior_derivative without m": (_both("exterior_derivative", _d_without_m), "diagram"),
    "codifferential second slot sign flipped": (
        _both("codifferential", _delta_without_slot_signs),
        "dual_diagram",
    ),
    "operator_matrix lower entry perturbed": (
        lambda mp: mp.setattr(cli, "operator_matrix", _perturbed_matrix("lower")),
        "diagram",
    ),
    "operator_matrix raise entry perturbed": (
        lambda mp: mp.setattr(cli, "operator_matrix", _perturbed_matrix("raise")),
        "dual_diagram",
    ),
    # δ on the neighbour H_{1,2}: the adjoint pairs H_{2,1} with it.
    "hermite_matrix raise perturbed on H_{1,2}": (
        lambda mp: mp.setattr(cli, "hermite_matrix", _perturbed_shift_at((1, 2))),
        "adjoint",
    ),
    "gram factor + 1 at q = 1": (
        lambda mp: mp.setattr(cli, "_gram_factor", lambda b, real=cli._gram_factor: real(b) + 1),
        "adjoint",
    ),
    "gram_matrix doubled on H_{2,1}": (
        lambda mp: mp.setattr(cli, "gram_matrix", _doubled_gram_at((2, 1))),
        "adjoint",
    ),
    "chaos_field re-keys one label": (
        lambda mp: mp.setattr(cli, "chaos_field", _rekeys_first_label),
        "diagram",
    ),
    # The Laplacian has no boolean key: its eigenvalue fails the case.
    "hodge_laplacian adds u": (
        lambda mp: mp.setattr(
            cli, "hodge_laplacian", lambda u, real=cli.hodge_laplacian: real(u) + u
        ),
        None,
    ),
    "A + B != n I": (
        lambda mp: mp.setattr(
            hodge,
            "split_matrices",
            lambda d, k, q, real=hodge.split_matrices: _perturbed_a(d, k, q, real),
        ),
        None,
    ),
}


@pytest.mark.parametrize("stand_in", sorted(CERTIFICATE_STAND_INS))
def test_chaos_certificate_fails_without_each_ingredient(stand_in, monkeypatch):
    d, n, k = 2, 3, 2
    status, details = cli._case_chaos(d, n, k, 0)
    assert status == "pass"
    assert details["adjoint"] is True and "isometry" not in details
    clear_caches()
    patch, key = CERTIFICATE_STAND_INS[stand_in]
    patch(monkeypatch)
    status, details = cli._case_chaos(d, n, k, 0)
    assert status == "fail"
    if key is not None:
        assert details[key] is False
    else:
        assert details["diagram"] and details["dual_diagram"] and details["adjoint"]


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
