import sys

import pytest
from hypothesis import settings, strategies as st

import hodgefock as hf
from hodgefock.tensor_core import sort_sign

settings.register_profile("exact", deadline=None, max_examples=30)
settings.load_profile("exact")


def clear_caches():
    """Empty every cache of every hodgefock module.

    The caches are keyed by data only, and each reads its module's
    bindings when it fills an entry; a test that swaps in a stand-in and
    expects a different answer calls this after patching.
    """
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hodgefock":
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def fresh_caches():
    """Empty caches before the test, and after it, so that what a
    stand-in computed does not outlive its patch."""
    clear_caches()
    yield
    clear_caches()


@pytest.fixture
def fresh_oracles(fresh_caches):
    """fresh_caches, with the Gaussian round trip's oracle emptied too: it
    reads chaos's bindings, and caches what a stand-in there gave.  Ask
    for it before monkeypatch, so that the patches are undone first."""
    import oracles

    oracles.chaos_block_holds.cache_clear()
    yield
    oracles.chaos_block_holds.cache_clear()


@st.composite
def signatures(draw, max_dim=3, max_n=4, min_k=0, min_q=0):
    """Small (d, k, q) with k >= min_k, q >= min_q and 1 <= k + q <= max_n."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(max(min_k + min_q, 1), max_n))
    k = draw(st.integers(min_k, n - min_q))
    return d, k, n - k


coefficients = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)


@st.composite
def mixed_tensors(draw, **kwargs):
    d, k, q = draw(signatures(**kwargs))
    labels = hf.enum_basis(d, k, q)
    coeffs = {}
    for b in draw(st.lists(st.sampled_from(labels), max_size=4)) if labels else []:
        coeffs[b] = draw(coefficients)
    return hf.FockTensor(d, k, q, coeffs)


@st.composite
def mixed_tensor_pairs(draw, **kwargs):
    """Two tensors drawn from the same block."""
    d, k, q = draw(signatures(**kwargs))
    labels = hf.enum_basis(d, k, q)
    pair = []
    for _ in range(2):
        coeffs = {}
        for b in draw(st.lists(st.sampled_from(labels), max_size=4)) if labels else []:
            coeffs[b] = draw(coefficients)
        pair.append(hf.FockTensor(d, k, q, coeffs))
    return pair[0], pair[1]


@st.composite
def full_tensors(draw, max_dim=3, max_n=4):
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_n))
    keys = st.tuples(*([st.integers(1, d)] * n))
    coeffs = {}
    for key in draw(st.lists(keys, max_size=5)):
        coeffs[key] = draw(coefficients)
    return hf.FullTensor(d, n, coeffs)


@st.composite
def pattern_tensors(draw, max_dim=5, max_n=4):
    """(t, d): a tensor on the block of a pattern mu, and a ground R^d
    with d >= len(mu)."""
    d = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_n))
    mu = draw(st.sampled_from([mu for mu, _ in hf.weight_patterns(d, n)]))
    k = draw(st.integers(0, n))
    labels = hf.enum_basis(mu, k, n - k)
    chosen = draw(st.lists(st.sampled_from(labels), max_size=4)) if labels else []
    coeffs = {b: draw(st.integers(-6, 6).filter(bool)) for b in chosen}
    return hf.FockTensor._trusted((mu, k, n - k), coeffs), d


def relabel(t, f, d):
    """The tensor t with every index i replaced by f(i), over R^d: a label
    whose wedge part f repeats goes to 0, the others take the sign that
    sorts their wedge part."""
    coeffs = {}
    for label, c in t.coeffs.items():
        res = sort_sign(tuple(f(j) for j in label.alt))
        if res is not None:
            key = hf.MixedIndex(tuple(sorted(f(i) for i in label.sym)), res[1])
            coeffs[key] = coeffs.get(key, 0) + res[0] * c
    return hf.FockTensor(d, t.k, t.q, coeffs)
