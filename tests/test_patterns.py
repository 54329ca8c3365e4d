"""The Fock-matrix checks and the Gaussian model run per weight pattern.

split, exactness, weitzenboeck, chaos and the decomposition's ker_lower
read one representative weight block per multiplicity pattern and sum,
take the maximum of, or and their results over the patterns; the
chaos-truncation case compares the routes of its defect in Hermite
coordinates, one monomial of h per relabelling class.  Here they are
compared with the whole-block, monomial and seeded oracles of
tests/oracles.py, and the verify path is shown to build no Fock matrix,
no chaos field and no truncation defect.
"""

import gc
import sys

import pytest

import hodgefock.chaos as chaos
import hodgefock.fock_ops as fock_ops
import hodgefock.hodge as hodge
from hodgefock.cli import VerifyConfig, run_verify
from hodgefock.fock_ops import LinearMap
from hodgefock.hodge import exactness_report, weitzenboeck_defect
from hodgefock.tensor_core import block_dim, weight_patterns

import oracles


def _hodgefock_modules():
    return [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "hodgefock"]


@pytest.fixture
def serial_fresh(fresh_caches, monkeypatch):
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")


def test_cases_equal_the_whole_block_oracles(serial_fresh):
    report = run_verify(VerifyConfig(suite="all", max_dim=5, max_n=6))
    assert report.status == "pass"
    compared = 0
    for case in report.cases:
        suite = case["name"].split()[0]
        d, n, k = (case["params"][key] for key in ("d", "n", "k"))
        if suite in oracles.CASES:
            assert (case["status"], case["details"]) == oracles.CASES[suite](d, n, k), case["name"]
            compared += 1
        if suite == "chaos-truncation":
            h = oracles.seeded_h(0, d, n)
            assert chaos.commutation_defect(h, (1,), n) == oracles.commutation_defect(h, (1,), n)
            seeded = oracles.truncation_case(d, n, k)
            assert case["status"] == ("skip" if d == 1 else seeded[0]), case["name"]
    assert compared == 5 * sum(n + 1 for n in range(1, 7)) * 5
    for d in range(1, 6):
        for n in range(1, 7):
            assert exactness_report(d, n) == oracles.exactness_report(d, n), (d, n)
            for k in range(n + 1):
                q = n - k
                assert weitzenboeck_defect(d, k, q) == oracles.weitzenboeck_defect(d, k, q)
                records = [chaos._chaos_pattern_holds(mu, k, q) for mu, _ in weight_patterns(d, n)]
                holds = tuple(all(record[i] for record in records) for i in (0, 1))
                assert holds == oracles.chaos_block_holds(d, k, q) == (True, True), (d, k)


def test_split_products_are_built_once_per_pattern_block(serial_fresh):
    # Every Fock-side suite reads the block's certificate, which reads the
    # split identities off the model; on the desk grid it is built once
    # for each (mu, k, q) with a label and never for a whole block.
    report = run_verify(VerifyConfig(suite="all", max_dim=4, max_n=4))
    assert report.status == "pass"
    blocks = {
        (mu, k, n - k)
        for d in range(1, 5)
        for n in range(1, 5)
        for k in range(n + 1)
        for mu, _ in weight_patterns(d, n)
        if n - k <= len(mu)
    }
    info = hodge._certificate.cache_info()
    assert info.misses == info.currsize == len(blocks) and info.hits > 0


# The per-block caches, each with the index of the ground in its key.
BLOCK_CACHES = {
    "_dictionary": (hodge._dictionary, 1),
    "_certificate": (hodge._certificate, 0),
    "_split_failures": (hodge._split_failures, 0),
    "_chaos_pattern_holds": (chaos._chaos_pattern_holds, 0),
    "_adjoint_residual": (fock_ops._adjoint_residual, 0),
}


def _block_cache_keys(monkeypatch, config) -> dict:
    """Run `config` and return the keys that reached each block cache,
    recorded through every hodgefock module that binds it; each cache
    holds exactly the recorded keys."""
    asked = {name: set() for name in BLOCK_CACHES}

    def recording(name, fn):
        def wrapper(*args):
            asked[name].add(args)
            return fn(*args)

        return wrapper

    for mod in _hodgefock_modules():
        for name, (fn, _) in BLOCK_CACHES.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, recording(name, fn))
    assert run_verify(config).status == "pass"
    for name, (fn, _) in BLOCK_CACHES.items():
        info = fn.cache_info()
        assert asked[name] and info.misses == info.currsize == len(asked[name]), name
    return asked


def test_verify_path_builds_no_whole_block_matrix(serial_fresh, monkeypatch):
    # Every ground is a pattern: no record of a whole block H_{k,q} over
    # R^d is built.
    asked = _block_cache_keys(monkeypatch, VerifyConfig(suite="all", max_dim=6, max_n=5))
    for name, (_, ground_at) in BLOCK_CACHES.items():
        grounds = {key[ground_at] for key in asked[name]}
        assert all(isinstance(ground, tuple) for ground in grounds), name


def test_no_block_cache_holds_an_empty_block(serial_fresh, monkeypatch):
    # A pattern block with q > len(mu) wedge slots, or q < 0, has no label:
    # every identity holds there and it adds 0 to each dimension, so the
    # pattern loops read no record of one.
    asked = _block_cache_keys(monkeypatch, VerifyConfig(suite="all", max_dim=6, max_n=7))
    for name, (_, ground_at) in BLOCK_CACHES.items():
        empty = [key for key in asked[name] if not 0 <= key[-1] <= len(key[ground_at])]
        assert empty == [], name


def test_a_filtered_run_checks_one_operator_per_neighbour(serial_fresh, monkeypatch):
    # The certificate of H_{2,1} reads lower there and from H_{3,0}, and
    # raise_ there and from H_{1,2}: 4 one-operator entries for each of the
    # 3 patterns of d = n = 3, less H_{1,2} of (3), which has no label,
    # and one operator call per label, 1 + 1 + 1 on (3), 3 + 3 on (2, 1)
    # and 4 + 6 on (1, 1, 1).
    calls, asked = [], set()
    real_dictionary = hodge._dictionary

    def counted(real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)

        return wrapper

    def recording(*key):
        asked.add(key)
        return real_dictionary(*key)

    for mod in _hodgefock_modules():
        for name in ("lower", "raise_"):
            if getattr(mod, name, None) is getattr(hodge, name):
                monkeypatch.setattr(mod, name, counted(getattr(hodge, name)))
        if getattr(mod, "_dictionary", None) is real_dictionary:
            monkeypatch.setattr(mod, "_dictionary", recording)
    config = VerifyConfig(suite="weitzenboeck", dim=3, n=3, k=2)
    assert run_verify(config).status == "pass"
    steps = (("lower", 2, 1), ("raise", 2, 1), ("lower", 3, 0), ("raise", 1, 2))
    assert asked == {(which, mu, k, q) for mu, _ in weight_patterns(3, 3) for which, k, q in steps
                     if q <= len(mu)}
    info = real_dictionary.cache_info()
    assert info.misses == info.currsize == 11 and len(calls) == 19


def test_each_adjoint_residual_is_computed_once_per_block(serial_fresh, monkeypatch):
    # The split and the chaos adjoint both read fock_ops._adjoint_residual;
    # on all 6 7 it is computed once for each of the 167 blocks read, the
    # pattern blocks with a label.
    asked = []
    real = fock_ops._adjoint_residual

    def recording(*block):
        asked.append(block)
        return real(*block)

    for mod in _hodgefock_modules():
        if getattr(mod, "_adjoint_residual", None) is real:
            monkeypatch.setattr(mod, "_adjoint_residual", recording)
    assert run_verify(VerifyConfig(suite="all", max_dim=6, max_n=7)).status == "pass"
    info = real.cache_info()
    assert info.misses == info.currsize == len(set(asked)) == 167
    assert len(asked) > 167


def test_gaussian_record_reads_no_fock_fact(serial_fresh, monkeypatch):
    # _chaos_pattern_holds holds Gaussian facts only: with the Fock
    # dictionary and adjointness replaced by stand-ins that raise, it
    # still gives its four booleans on every block of d <= 4, n <= 4.
    def refused(*args):
        raise AssertionError(f"the Gaussian record read a Fock fact at {args}")

    for name in ("_dictionary", "_adjoint_residual"):
        for mod in _hodgefock_modules():
            if callable(getattr(mod, name, None)):
                monkeypatch.setattr(mod, name, refused)
    for n in range(1, 5):
        for mu, _ in weight_patterns(4, n):
            for k in range(-1, n + 2):
                assert chaos._chaos_pattern_holds(mu, k, n - k) == (True,) * 4, (mu, k)


def test_gaussian_record_builds_two_shift_matrices_per_nonempty_block(serial_fresh, monkeypatch):
    # Each pattern block the chaos cases read has one record, which reads
    # the model's columns of d and δ once each; no empty block is read.
    read, shifts = set(), []
    real_record, real_shift = chaos._chaos_pattern_holds, chaos._model_images

    def record(*block):
        read.add(block)
        return real_record(*block)

    def shift(which, mu, q):
        shifts.append((which, mu, q))
        return real_shift(which, mu, q)

    monkeypatch.setattr(chaos, "_chaos_pattern_holds", record)
    monkeypatch.setattr(chaos, "_model_images", shift)
    assert run_verify(VerifyConfig(suite="chaos", max_dim=4, max_n=4)).status == "pass"
    assert read and all(block_dim(*block) for block in read)
    assert sorted(shifts) == sorted((w, mu, q) for w in ("lower", "raise") for mu, _, q in read)
    info = real_record.cache_info()
    assert info.misses == info.currsize == len(read)


def _linear_maps(value):
    """The LinearMaps in value, looking through tuples, lists and dicts."""
    if isinstance(value, LinearMap):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [m for item in value for m in _linear_maps(item)]
    return []


def test_no_cache_holds_a_linear_map(serial_fresh):
    # The verify path reads every Fock and Gaussian identity off the Koszul
    # model: after a run no cache holds a matrix, and operator_matrix has
    # no cache.  An lru_cache's store is among its gc referents.
    assert run_verify(VerifyConfig(suite="all", max_dim=5, max_n=6)).status == "pass"
    caches = {
        fn
        for mod in _hodgefock_modules()
        for fn in vars(mod).values()
        if callable(getattr(fn, "cache_info", None))
    }
    holding = {
        fn.__qualname__
        for fn in caches
        for store in gc.get_referents(fn)
        if isinstance(store, dict) and _linear_maps(store)
    }
    assert caches and not holding
    assert not hasattr(fock_ops.operator_matrix, "cache_info")


def test_gaussian_model_builds_no_field_and_no_monomial_defect(serial_fresh, monkeypatch):
    # A serial chaos run builds no chaos field: each pattern block's record
    # reads the labels and the per-degree tables.  No case builds the
    # truncation defect either: chaos-truncation compares the two routes
    # coefficient by coefficient.  commutation_defect sums the same routes,
    # _truncation_routes: it calls neither exp_vector nor
    # exterior_derivative (which the ladder tables still run).
    fields, defects, derived, routes = [], [], [], []
    real_defect, real_d = chaos.commutation_defect, chaos.exterior_derivative
    real_routes = chaos._truncation_routes

    def derivative(u):
        derived.append(u)
        return real_d(u)

    def counted_routes(*args):
        routes.append(args)
        return real_routes(*args)

    monkeypatch.setattr(chaos, "chaos_field", lambda t: fields.append(t))
    monkeypatch.setattr(chaos, "commutation_defect", lambda *args: defects.append(args))
    for mod in _hodgefock_modules():
        if getattr(mod, "exterior_derivative", None) is real_d:
            monkeypatch.setattr(mod, "exterior_derivative", derivative)
    report = run_verify(VerifyConfig(suite="chaos", max_dim=6, max_n=4))
    assert report.status == "pass" and len(report.cases) == 6 * (2 + 3 + 4 + 5 + 4)
    assert not fields and not defects and derived
    derived.clear()
    monkeypatch.setattr(chaos, "_truncation_routes", counted_routes)
    monkeypatch.setattr(chaos, "exp_vector", lambda *args: defects.append(args))
    assert not real_defect((1, -2, 3, 0), (1,), 4).is_zero()
    assert not derived and not defects and routes
