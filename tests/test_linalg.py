"""The sparse-vector core: elimination against a dense oracle and against
the Fraction elimination it replaced, and the unchecked constructor used
by operators against the validating ones."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

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
    raise_,
    random_tensor,
)
from hodgefock.chaos import (
    FormField,
    HermiteExpansion,
    Poly,
    chaos_field,
    codifferential,
    exterior_derivative,
)
from hodgefock.linalg import EchelonBasis, kernel_basis, lincomb, matrix_rank

from oracles import alt_subset, project_mixed, sym_subset, symmetric_group


def subtract_scaled(vec: dict, row: dict, c) -> None:
    """In place: vec -= c * row, dropping entries that cancel to zero."""
    for key, val in row.items():
        cur = vec.get(key, 0) - c * val
        if cur:
            vec[key] = cur
        else:
            vec.pop(key, None)


def eliminate(vec: dict, rows: dict) -> dict:
    """Reduce a copy of vec against rows (a dict pivot -> pivot-normalized row).

    Rows must be in echelon form: each row's pivot is its smallest key.
    A single pass in increasing pivot order then suffices, because
    eliminating pivot p only introduces keys larger than p.
    """
    out = dict(vec)
    for p in sorted(rows):
        c = out.get(p)
        if c:
            subtract_scaled(out, rows[p], c)
    return out


class FractionEchelonBasis:
    """A reduced-echelon family of sparse vectors with pivots normalized to 1.

    The slow, obvious oracle of linalg.EchelonBasis: every row is reduced
    in Fraction arithmetic.  Inputs must hold no explicit zero entries.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> list[dict]:
        return [self.rows[p] for p in sorted(self.rows)]

    def reduce(self, vec: dict) -> dict:
        return eliminate(vec, self.rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span.  Returns True iff the dimension grew."""
        res = self.reduce(vec)
        if not res:
            return False
        p = min(res)
        inv = Fraction(1) / res[p]
        new = {k: v * inv for k, v in res.items()}
        for row in self.rows.values():
            c = row.get(p)
            if c:
                subtract_scaled(row, new, c)
        self.rows[p] = new
        return True

    def coordinates(self, vec: dict) -> list | None:
        """Coefficients of vec in the stored row basis, or None if outside.

        Because rows are fully reduced, the coefficient on the row with
        pivot p is just vec[p].
        """
        if self.reduce(vec):
            return None
        return [vec.get(p, 0) for p in sorted(self.rows)]


def fraction_kernel_basis(columns: list[dict]) -> list[dict]:
    """linalg.kernel_basis on the Fraction oracle."""
    ech = FractionEchelonBasis()
    for j, col in enumerate(columns):
        vec = {(0, key): v for key, v in col.items()}
        vec[(1, j)] = 1
        ech.insert(vec)
    return [
        {j: v for (_, j), v in row.items()}
        for p, row in sorted(ech.rows.items())
        if p[0] == 1
    ]


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


def rational_vectors(rng, nrows, count):
    """Sparse int and Fraction vectors, some of them rational rescalings of
    earlier ones, with no explicit zero entries."""
    vecs = []
    for _ in range(count):
        if vecs and rng.random() < 0.3:
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
            vecs.append({i: c * v for i, v in rng.choice(vecs).items()})
            continue
        vec = {}
        for i in range(nrows):
            if rng.random() < 0.5:
                v = rng.randint(-9, 9)
                vec[i] = v if rng.random() < 0.5 else Fraction(v, rng.randint(1, 6))
        vecs.append({i: v for i, v in vec.items() if v})
    return vecs


def pivot_one(row: dict) -> dict:
    """row scaled so that its entry at its smallest key is 1, as Fractions."""
    a = row[min(row)]
    return {key: Fraction(v, a) for key, v in row.items()}


def assert_primitive_reduced(ech):
    """Each stored row: integers, pivot = smallest key with positive entry,
    coprime entries, and no entry at another row's pivot."""
    pivots = set(ech._rows)
    for p, row in ech._rows.items():
        assert p == min(row) and row[p] > 0, row
        assert all(type(v) is int and v for v in row.values()), row
        assert gcd(*row.values()) == 1, row
        assert not (pivots - {p}) & row.keys(), row


def test_echelon_basis_matches_the_fraction_oracle():
    rng = random.Random("linalg:oracle")
    for _ in range(300):
        nrows = rng.randint(0, 7)
        vecs = rational_vectors(rng, nrows, rng.randint(0, 8))
        ech, oracle = EchelonBasis(), FractionEchelonBasis()
        for vec in vecs:
            assert ech.insert(vec) == oracle.insert(vec), vecs
            assert_primitive_reduced(ech)
        assert ech.dim == oracle.dim
        rows = ech.rows()
        assert {min(row): pivot_one(row) for row in rows} == oracle.rows
        assert [pivot_one(row) for row in rows] == oracle.sorted_rows()
        probes = rational_vectors(rng, nrows, 4)
        probes += [
            {i: v for i, v in lincomb((rng.randint(-3, 3), vec) for vec in vecs).items() if v}
            for _ in range(3)
        ]
        for probe in probes:
            assert ech.contains(probe) == oracle.contains(probe), (vecs, probe)
            coords, expected = ech.coordinates(probe), oracle.coordinates(probe)
            if expected is None:
                assert coords is None, (vecs, probe)
                continue
            assert all(type(c) in (int, Fraction) for c in coords), (vecs, probe)
            # The oracle's coordinate i is on row i scaled to pivot 1.
            scaled = [c * row[min(row)] for c, row in zip(coords, rows)]
            assert scaled == expected, (vecs, probe)
        kern = kernel_basis(vecs)
        for x in kern:
            assert all(type(v) is int for v in x.values()) and gcd(*x.values()) == 1, vecs
        oracle_kern = fraction_kernel_basis(vecs)
        assert [pivot_one(x) for x in kern] == [pivot_one(x) for x in oracle_kern], vecs


def test_explicit_zero_entries_are_dropped():
    assert matrix_rank([{0: 0, 1: 1}]) == 1
    assert kernel_basis([{0: 0}, {0: 1}]) == [{0: 1}]
    ech = EchelonBasis()
    assert ech.insert({0: 0}) is False
    assert ech.dim == 0


def test_float_entries_are_refused():
    ech = EchelonBasis()
    ech.insert({0: 1})
    for call in (
        lambda: matrix_rank([{0: 1.0}]),
        lambda: kernel_basis([{0: 0.5}, {0: 1.5}]),
        lambda: EchelonBasis().insert({0: 2.0}),
        lambda: ech.contains({0: 0.5}),
        lambda: ech.coordinates({0: 0.5}),
    ):
        with pytest.raises(TypeError):
            call()


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
            assert other.rows() == reference.rows()


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
                check(raise_(t))
                m = operator_matrix("lower", d, k, q)
                g = gram_matrix(d, k, q)
                ident = LinearMap.identity((d, k, q))
                for x in (m, g, ident, m.transpose(), m @ g, g + ident, m.scale(3)):
                    check(x)
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
                check(codifferential(form))
                for _, f in form.items():
                    check(f)
                    check(f * f)
                    check(exterior_derivative(FormField(d, 0, {(): f})))
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
