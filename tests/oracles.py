"""Whole-block oracles of the Fock-matrix checks.

The verify suites prove their matrix identities on one representative
weight block per multiplicity pattern and combine the results over the
patterns.  The functions here are the same checks as they ran on whole
blocks H_{k,q} over R^d: the split identities, the exactness rows, the
Weitzenböck defect, the Hermite shift matches, the Fock adjoint residual
and the decomposition's ker_lower.  Each case function returns the
(status, details) pair of the verify case of the same suite.

The decomposition's certificate has its oracles here too: pattern_block
is the elimination it replaced, intersections of position families in
the full tensor power, and family_holds runs the certificate's family
check on full tensors instead of position-set coordinates.
"""

from functools import lru_cache

from hodgefock import FockTensor, LinearMap, Subspace, block_dim, embed, enum_basis
from hodgefock import gram_matrix, lower, operator_matrix, permute, raise_
from hodgefock.chaos import hermite_matrix
from hodgefock.fock_ops import Permutation
from hodgefock.hodge import ExactnessReport, ExactnessRow, hodge_split
from hodgefock.linalg import kernel_basis, matrix_rank
from hodgefock.rep_theory import _distinct_label, _hook_content, _position_span
from hodgefock.rep_theory import _transposition_sum, intersect

import hodgefock.cli as cli


def split_matrices(d, k, q):
    """A = lower . raise_ and B = raise_ . lower on the whole block."""
    a = operator_matrix("lower", d, k + 1, q - 1) @ operator_matrix("raise", d, k, q)
    b = operator_matrix("raise", d, k - 1, q + 1) @ operator_matrix("lower", d, k, q)
    return a, b


def weitzenboeck_defect(d, k, q):
    a, b = split_matrices(d, k, q)
    return (a + b - LinearMap.identity((d, k, q)).scale(k + q)).max_abs_entry()


@lru_cache(maxsize=None)
def exactness_report(d, n):
    """Ranks, kernels and harmonic dimensions from whole-block eliminations."""
    rows = []
    for k in range(n, -1, -1):
        q = n - k
        maps = [operator_matrix("lower", d, k, q), operator_matrix("raise", d, k, q)]
        (rank_lower, ker_lower), (rank_raise, ker_raise) = (
            (m.rank(), len(kernel_basis(m.columns()))) for m in maps
        )
        dim = block_dim(d, k, q)
        harmonic = dim - matrix_rank([row for m in maps for row in m.transpose().columns()])
        rows.append(
            ExactnessRow(k, q, dim, rank_lower, ker_lower, rank_raise, ker_raise, harmonic)
        )
    return ExactnessReport(d, n, tuple(rows))


def hermite_matches(which, d, k, q):
    return hermite_matrix(which, d, k, q) == operator_matrix(which, d, k, q)


def adjoint_residual(d, k, q):
    """G' L - (G R')^T on the whole block."""
    return gram_matrix(d, k - 1, q + 1) @ operator_matrix("lower", d, k, q) - (
        gram_matrix(d, k, q) @ operator_matrix("raise", d, k - 1, q + 1)
    ).transpose()


def _split_residuals(d, k, q, labels):
    n = k + q
    a, b = split_matrices(d, k, q)
    yield "plus + minus = t", [a + b - LinearMap.identity((d, k, q)).scale(n)]
    yield "lower(plus) = 0", [operator_matrix("lower", d, k, q) @ a]
    yield "raise_(minus) = 0", [operator_matrix("raise", d, k, q) @ b]
    yield "split(plus) = (plus, 0)", [a @ a - a.scale(n), b @ a]
    yield "split(minus) = (0, minus)", [a @ b, b @ b - b.scale(n)]
    yield "adjoint", [adjoint_residual(d, k, q)]
    if labels:
        t = FockTensor(d, k, q, {label: i + 1 for i, label in enumerate(labels)})
        plus, minus = hodge_split(t)
        yield "hodge_split", [plus - a.apply(t) / n, minus - b.apply(t) / n]


def split_case(d, n, k):
    q = n - k
    labels = enum_basis(d, k, q)
    details = {"dim": len(labels)}
    index = {label: i for i, label in enumerate(labels)}
    for name, residuals in _split_residuals(d, k, q, labels):
        bad = [
            key[1] if isinstance(res, LinearMap) else index[key]
            for res in residuals
            for key in res.coeffs
        ]
        if bad:
            details.update(failed=name, label=labels[min(bad)].render())
            return "fail", details
    return "pass", details


def weitzenboeck_case(d, n, k):
    q = n - k
    defect = weitzenboeck_defect(d, k, q)
    details = {"dim": block_dim(d, k, q), "defect": str(defect)}
    return ("pass" if defect == 0 else "fail"), details


def exactness_case(d, n, k):
    rep = exactness_report(d, n)
    row = rep.row(k)
    lower_ok, raise_ok = rep.exact_at(k)
    details = {
        "dim": row.dim,
        "rank_lower": row.rank_lower,
        "ker_lower": row.ker_lower,
        "rank_raise": row.rank_raise,
        "ker_raise": row.ker_raise,
        "harmonic_dim": row.harmonic_dim,
        "lower_exact": lower_ok,
        "raise_exact": raise_ok,
    }
    ok = lower_ok and raise_ok and row.rank_nullity_ok() and row.harmonic_dim == 0
    return ("pass" if ok else "fail"), details


def decomposition_case(d, n, k):
    q = n - k
    dim, dim_plus, dim_minus, direct = cli.decomposition_dims(d, k, q)
    block = block_dim(d, k, q)
    ker_lower = block - operator_matrix("lower", d, k, q).rank()
    details = {"dim": dim, "dim_plus": dim_plus, "dim_minus": dim_minus, "ker_lower": ker_lower}
    ok = direct and dim == block and dim_plus == ker_lower
    return ("pass" if ok else "fail"), details


def chaos_case(d, n, k):
    """The chaos case with its matrix identities on whole blocks; the
    dictionary, the isometry and the ladder tables are the suite's own."""
    q = n - k
    here, iso = cli._chaos_block_holds(d, k, q)
    below, iso_below = cli._chaos_block_holds(d, k - 1, q + 1)
    above = cli._chaos_block_holds(d, k + 1, q - 1)[0]
    ladder_d, ladder_delta, ladder_lap = cli._ladder_tables_hold(n)
    diagram = here and below and ladder_d and hermite_matches("lower", d, k, q)
    dual = here and above and ladder_delta and hermite_matches("raise", d, k, q)
    eigen = (
        ladder_lap
        and hermite_matches("lower", d, k + 1, q - 1)
        and hermite_matches("raise", d, k - 1, q + 1)
        and weitzenboeck_defect(d, k, q) == 0
    )
    dim = block_dim(d, k, q)
    details = {
        "dim": dim,
        "diagram": diagram,
        "dual_diagram": dual,
        "laplacian_eigenvalue": str(n) if dim else "0",
    }
    ok = diagram and dual and eigen
    if q == 0:
        details["isometry"] = iso
        ok = ok and iso
    if q + 1 <= d:
        adj = (
            diagram
            and iso
            and iso_below
            and ladder_delta
            and hermite_matches("raise", d, k - 1, q + 1)
            and adjoint_residual(d, k, q).is_zero()
        )
        details["adjoint"] = adj
        ok = ok and adj
    return ("pass" if ok else "fail"), details


CASES = {
    "weitzenboeck": weitzenboeck_case,
    "exactness": exactness_case,
    "split": split_case,
    "decomposition": decomposition_case,
    "chaos": chaos_case,
}


def pattern_block(mu, k, q):
    """(dim, dim_plus, dim_minus, direct) of the weight block of mu by
    elimination in the tensor power over R^len(mu): the embedded block, its
    intersections with the two neighbouring position families, and the
    intersection of those."""
    r, n = len(mu), k + q
    space = Subspace.spanned_by(r, n, [embed(FockTensor.basis(r, b)) for b in enum_basis(mu, k, q)])
    plus = intersect(space, _position_span(r, n, k + 1, enum_basis(mu, k + 1, q - 1)))
    minus = intersect(space, _position_span(r, n, k - 1, enum_basis(mu, k - 1, q + 1)))
    direct = plus.dim + minus.dim == space.dim and intersect(plus, minus).dim == 0
    return space.dim, plus.dim, minus.dim, direct


def family_holds(n, j):
    """The family check of the certificate on full tensors over R^n: T
    applied by permuting slots, and each witness sum written out with
    Permutation.transposition."""
    s = FockTensor.basis(n, _distinct_label(n, j))
    e = embed(s)
    z = e
    for c in (_hook_content(j, n - j), _hook_content(j + 1, n - j - 1)):
        z = _transposition_sum(z) - z.scale(c)
    ok = z.is_zero()
    if j >= 1:
        rhs = e
        for m in range(j + 1, n + 1):
            rhs = rhs - permute(e, Permutation.transposition(n, j, m))
        ok = ok and embed(lower(s)) == rhs
    if j < n:
        rhs = e
        for m in range(1, j + 1):
            rhs = rhs + permute(e, Permutation.transposition(n, m, j + 1))
        ok = ok and embed(raise_(s)) == rhs
    return ok
