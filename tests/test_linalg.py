"""The sparse-vector core: elimination against a dense oracle, and the
unchecked constructor used by operators against the validating ones."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from hodgefock import (
    DimensionMismatch,
    FockTensor,
    FullTensor,
    InvalidIndex,
    LinearMap,
    enum_basis,
    embed,
    gram_matrix,
    lower,
    operator_matrix,
    permute,
    project_mixed,
    raise_,
    random_tensor,
    symmetric_group,
)
from hodgefock.chaos import (
    FormField,
    HermiteExpansion,
    Poly,
    chaos_field,
    codifferential,
    exterior_derivative,
)
from hodgefock.fock_ops import alt_subset, sym_subset
from hodgefock.linalg import EchelonBasis, kernel_basis, matrix_rank


def dense_rank(columns, nrows):
    """Textbook Gaussian elimination on a dense Fraction matrix."""
    rows = [[Fraction(col.get(i, 0)) for col in columns] for i in range(nrows)]
    rank = 0
    for c in range(len(columns)):
        pivot = next((r for r in range(rank, nrows) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(nrows):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_columns(rng, nrows, ncols):
    """Sparse integer columns; low-rank products mixed in so kernels occur."""
    cols = []
    for _ in range(ncols):
        col = {i: rng.randint(-3, 3) for i in range(nrows) if rng.random() < 0.5}
        cols.append({i: v for i, v in col.items() if v})
    if ncols >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(ncols), 2)
        c = rng.randint(-2, 2)
        combo = {i: cols[a].get(i, 0) + c * cols[b].get(i, 0) for i in range(nrows)}
        cols.append({i: v for i, v in combo.items() if v})
    return cols


def test_matrix_rank_matches_dense_elimination():
    rng = random.Random("linalg:rank")
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        cols = random_columns(rng, nrows, ncols)
        assert matrix_rank(cols) == dense_rank(cols, nrows), cols


def test_kernel_basis_annihilates_and_has_full_dimension():
    rng = random.Random("linalg:kernel")
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        cols = random_columns(rng, nrows, ncols)
        kern = kernel_basis(cols)
        assert len(kern) == len(cols) - dense_rank(cols, nrows)
        for x in kern:
            image = {}
            for j, c in x.items():
                for i, v in cols[j].items():
                    image[i] = image.get(i, 0) + c * v
            assert not any(image.values()), (cols, x)
        # linearly independent: the kernel vectors have full rank themselves
        assert matrix_rank(kern) == len(kern)


def test_echelon_rows_do_not_depend_on_insertion_order():
    rng = random.Random("linalg:order")
    for _ in range(50):
        cols = random_columns(rng, 5, rng.randint(1, 6))
        reference = EchelonBasis()
        for col in cols:
            reference.insert(col)
        for _ in range(3):
            shuffled = cols[:]
            rng.shuffle(shuffled)
            other = EchelonBasis()
            for col in shuffled:
                other.insert(col)
            assert other.rows == reference.rows


def revalidated(x):
    """The same vector rebuilt through its class's public, checking constructor."""
    if isinstance(x, FormField):
        return FormField(x.dim, x.q, dict(x.items()))
    return type(x)(*x.shape(), x.coeffs)


def check(x):
    assert revalidated(x) == x, x
    assert all(x.coeffs.values()), x


def test_operator_outputs_pass_the_validating_constructors():
    rng = random.Random("linalg:trusted")
    for d in range(1, 4):
        for n in range(1, 5):
            perms = list(symmetric_group(n))
            for k in range(n + 1):
                q = n - k
                if not enum_basis(d, k, q):
                    continue
                t = random_tensor(d, k, q, rng)
                u = random_tensor(d, k, q, rng)
                for x in (t + u, t - u, -t, t * 3, t / 2, t.scale(0)):
                    check(x)
                check(lower(t))
                if q >= 1:
                    check(raise_(t))
                m = operator_matrix("lower", d, k, q)
                g = gram_matrix(d, k, q)
                ident = LinearMap.identity((d, k, q))
                for x in (m, g, ident, m.transpose(), m @ g, g + ident, m.scale(3)):
                    check(x)
                if q >= 1:
                    check(operator_matrix("raise", d, k, q))
                w = embed(t)
                check(w)
                check(project_mixed(w, k))
                for p in perms:
                    check(permute(w, p))
                for pos in combinations(range(1, n + 1), 2):
                    check(sym_subset(w, pos))
                    check(alt_subset(w, pos))
                check(w + embed(u) - w.scale(2))
                form = chaos_field(t)
                check(form)
                check(exterior_derivative(form))
                if q >= 1:
                    check(codifferential(form))
                for _, f in form.items():
                    check(f)
                    check(f * f)
                    for i in range(1, d + 1):
                        check(f.diff(i))
                    h = HermiteExpansion.from_poly(f)
                    check(h)
                    check(h.to_poly())
                    assert h.to_poly() == f


def test_shape_and_type_mismatch_are_refused():
    with pytest.raises(DimensionMismatch):
        Poly.const(2, 1) + Poly.const(3, 1)
    with pytest.raises(DimensionMismatch):
        # same 2x2 size, different codomains (2, 0, 1) and (2, 1, 0)
        operator_matrix("lower", 2, 1, 0) + gram_matrix(2, 1, 0)
    with pytest.raises(InvalidIndex):
        LinearMap((2, 1, 1), (2, 0, 2), {(1, 0): 1})
    with pytest.raises(TypeError):
        LinearMap((2, 1, 1), (2, 0, 2), {(0, 0): 0.5})
    with pytest.raises(TypeError):
        FullTensor(2, 1, {(1,): 1}) + FockTensor.zero(2, 1, 0)
    with pytest.raises(TypeError):
        hash(HermiteExpansion(1, {(2,): 1}))
