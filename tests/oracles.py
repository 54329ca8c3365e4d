"""Reference implementations that the tests compare the package with.

Nothing here is package API: hodgefock neither exports nor calls it.

The verify suites prove their matrix identities on one representative
weight block per multiplicity pattern and combine the results over the
patterns.  The functions here are the same checks as they ran on whole
blocks H_{k,q} over R^d: the split identities, the exactness rows, the
Weitzenböck defect, the Hermite shift matches, the Fock adjoint residual
and the decomposition's ker_lower.  Each case function returns the
(status, details) pair of the verify case of the same suite.

The Gaussian model has its whole-block oracles here too:
chaos_block_holds reads the dictionary and the isometry off one field
per block H_{k,q} over R^d, multiplied out into monomials and read back
through HermiteExpansion.from_poly, with gaussian_inner; the verify path
reads only the labels and the per-degree tables.  commutation_defect
computes both routes of the truncation square on monomials, route one by
exterior_derivative.
truncation_case is the chaos-truncation case as it ran on one h drawn
from the seed (seeded_h), before it held for every h; it is not in CASES,
as its details name h.

Each pattern block's certificate reads the Koszul model of the package
(fock_ops._koszul).  The matrix certificate it replaced is here
(certificate): the products of operator_matrix, their traces and the
defect, with hermite_matrix, the shift matrices of d and δ that the chaos
record compared with them.  operator_matrix is memoized here, as the
package no longer caches it.  The Fock ranks of the verify path are
traces; the eliminations they replaced are the tests' references too: a
rank is matrix_rank of the matrix's columns, block_row is the exactness
row of one block with kernels and harmonic part by
elimination, and for the rep case rep_split_dims gives the ranks of T
minus each hook content over the orbit's sets and repeated_orbit the
columns of the repeated label's orbit, whose rank was its dimension.

The decomposition's certificate has its oracles here too: pattern_block
is the elimination it replaced, intersections of position families in
the full tensor power, and family_holds runs the certificate's family
check on full tensors instead of position-set coordinates, with T as
transposition_sum.

Last, the slow, obvious constructions on the full tensor power: the rep
case's two witnesses as full tensors (witnesses), the n! sweep
symmetric_group, the m!-term averagers sym_subset and alt_subset over a
position set, project_mixed back onto canonical labels (a k! q! left
inverse of embed), and the slot-wise pairing inner_full.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, prod

from hodgefock import DegreeOutOfRange, FockTensor, FormField, FullTensor, InvalidIndex
from hodgefock import LinearMap, MixedIndex, Subspace, block_dim, embed
from hodgefock import enum_basis, exterior_derivative, gram_matrix
from hodgefock import inner, lower, permute, raise_
from hodgefock.chaos import _hermite_image, hermite_key
from hodgefock.fock_ops import Permutation, _wedge_insert
from hodgefock.hodge import ExactnessReport, ExactnessRow, hodge_split
from hodgefock.linalg import kernel_basis, lincomb, matrix_rank
from hodgefock.rep_theory import _distinct_label, _hook_content, _position_span
from hodgefock.rep_theory import intersect
from hodgefock.linalg import dot
from hodgefock.tensor_core import _gram_factor, _signed_arrangements, sort_sign

import hodgefock.chaos as chaos
import hodgefock.fock_ops as fock_ops
import hodgefock.rep_theory as rep_theory


@lru_cache(maxsize=None)
def operator_matrix(which, ground, k, q):
    """fock_ops.operator_matrix, built once per argument tuple: the oracles
    ask for the same matrices many times.  It reads fock_ops' own lower
    and raise_, which no stand-in patches."""
    return fock_ops.operator_matrix(which, ground, k, q)


def first_label(m):
    """The domain label of the first nonzero column of m, or None if m = 0."""
    return enum_basis(*m.dom_sig)[min(c for _, c in m.coeffs)] if m.coeffs else None


def certificate(ground, k, q):
    """(checks, ranks, defect) of one block from the operator matrices: the
    products A = L R and B = R L, each identity's first failing label
    (A + B = n I, L L from H_{k+1,q-1}, R R from H_{k-1,q+1}), the traces
    (tr(B) / n, tr(A) / n), None if one fails, and the largest |entry| of
    A + B - n I.  The verify path's certificate adds the two dictionary
    checks in front of these."""
    n = k + q
    a, b = split_matrices(ground, k, q)
    residual = a + b - LinearMap.identity((ground, k, q)).scale(n)
    checks = [("plus + minus = t", first_label(residual))]
    for name, which, i in (("lower lower = 0", "lower", 1), ("raise_ raise_ = 0", "raise", -1)):
        twice = operator_matrix(which, ground, k, q) @ operator_matrix(which, ground, k + i, q - i)
        checks.append((name, first_label(twice)))
    ranks = None
    if all(label is None for _, label in checks):
        trace_a, trace_b = (sum(v for (r, c), v in m.coeffs.items() if r == c) for m in (a, b))
        ranks = (trace_b // n, trace_a // n)
    return tuple(checks), ranks, residual.max_abs_entry()


def hermite_matrix(which, ground, k, q):
    """Matrix of d ("lower") or δ ("raise") on the chaos of a block.

    Column b is _hermite_image of He_{mult(b)} dx_{b.alt}, and each image
    key is read back as the label of the neighbouring block with that
    hermite_key.  Under the dictionary this must equal
    operator_matrix(which, ground, k, q), entry for entry; off the end of
    the complex both are zero maps into the empty block.
    """
    if which not in ("lower", "raise"):
        raise InvalidIndex(f"unknown operator {which!r}")
    cod_sig = (ground, k - 1, q + 1) if which == "lower" else (ground, k + 1, q - 1)
    index = {hermite_key(b, ground): r for r, b in enumerate(enum_basis(*cod_sig))}
    entries = {}
    for c, b in enumerate(enum_basis(ground, k, q)):
        for key, v in _hermite_image(which, *hermite_key(b, ground)):
            entries[(index[key], c)] = v
    return LinearMap._trusted(((ground, k, q), cod_sig), entries)


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
    return ExactnessReport(d, n, tuple(block_row(d, k, n - k) for k in range(n, -1, -1)))


def block_row(ground, k, q):
    """The exactness row of one block (ground d or a pattern mu) from
    eliminations: each rank by matrix_rank, each kernel by kernel_basis,
    and the harmonic dimension as the kernel of lower stacked on raise_."""
    maps = [operator_matrix("lower", ground, k, q), operator_matrix("raise", ground, k, q)]
    (rank_lower, ker_lower), (rank_raise, ker_raise) = (
        (matrix_rank(m.columns()), len(kernel_basis(m.columns()))) for m in maps
    )
    dim = block_dim(ground, k, q)
    harmonic = dim - matrix_rank([row for m in maps for row in m.transpose().columns()])
    return ExactnessRow(k, q, dim, rank_lower, ker_lower, rank_raise, ker_raise, harmonic)


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
    dim, dim_plus, dim_minus, direct = rep_theory.decomposition_dims(d, k, q)
    block = block_dim(d, k, q)
    ker_lower = block - matrix_rank(operator_matrix("lower", d, k, q).columns())
    details = {"dim": dim, "dim_plus": dim_plus, "dim_minus": dim_minus, "ker_lower": ker_lower}
    ok = direct and dim == block and dim_plus == ker_lower
    return ("pass" if ok else "fail"), details


@lru_cache(maxsize=None)
def chaos_block_holds(d, k, q):
    """(dictionary, isometry) on the whole block H_{k,q} over R^d, from the
    one field f = chaos_field(t), t = sum_i (i+1) e_{b_i}, multiplied out
    into monomials and read back; the verify path reads per-degree tables.

    The dictionary holds when f reads back, through hermite_coords and
    HermiteExpansion.from_poly, to exactly {hermite_key(b_i): i+1}:
    chaos_field acts label by label, so a re-keyed or rescaled label
    shows.  The isometry adds gaussian_inner(f, f) = inner(t, t).
    chaos_field and gaussian_inner are read from the chaos module on each
    call, so a stand-in patched there reaches this oracle; it is cached
    here, and a test that patches one clears it."""
    labels = enum_basis(d, k, q)
    if not labels:
        return True, True
    t = FockTensor(d, k, q, {b: i + 1 for i, b in enumerate(labels)})
    f = chaos.chaos_field(t)
    dictionary = f.hermite_coords() == {hermite_key(b, d): c for b, c in t.coeffs.items()}
    isometry = (
        dictionary
        and chaos._hermite_table_holds(k)
        and all(_gram_factor(b) == prod(map(factorial, hermite_key(b, d)[1])) for b in labels)
        and chaos.gaussian_inner(f, f) == inner(t, t)
    )
    return dictionary, isometry


def chaos_case(d, n, k):
    """The chaos case on whole blocks; the ladder tables are the suite's own."""
    q = n - k
    here, iso = chaos_block_holds(d, k, q)
    below, iso_below = chaos_block_holds(d, k - 1, q + 1)
    above = chaos_block_holds(d, k + 1, q - 1)[0]
    ladder_d, ladder_delta, ladder_lap = chaos._ladder_tables_hold(n)
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


def commutation_defect(h, x, order):
    """The truncation defect on monomials: the chaos fields of the
    truncated exponential vector of h tensor wedge x and tensor h wedge x,
    each multiplied out, and route one through exterior_derivative."""
    d, x = len(h), tuple(x)
    exp_h = {
        mult: prod(Fraction(hi) ** a / factorial(a) for hi, a in zip(h, mult))
        for k in range(order + 1)
        for mult in (hermite_key(b, d)[1] for b in enum_basis(d, k, 0))
    }

    def tensor_with(key):
        return FormField.from_hermite(d, len(key), {(key, m): c for m, c in exp_h.items()})

    defect = exterior_derivative(tensor_with(x))
    for i in range(1, d + 1):
        ins = _wedge_insert(i, x)
        if h[i - 1] and ins is not None:
            sign, new = ins
            defect = defect - tensor_with(new).scale(sign * h[i - 1])
    return defect


def _rng(seed, *tags):
    """The generator of a seeded draw, keyed by the seed and the tags."""
    return random.Random(":".join([str(seed), *map(str, tags)]))


def seeded_h(seed, d, n):
    """The vector h that the chaos-truncation case drew for (d, n) while it
    read the seed."""
    rng = _rng(seed, "trunc", d, n)
    return [rng.randint(-3, 3) for _ in range(d)]


def truncation_case(d, n, k, seed=0):
    """The chaos-truncation case as it ran on one seeded h: the defect of
    commutation_defect against n! times the expected top chunk in Hermite
    coordinates, both multiplied out into monomials, with h and the
    degrees in the details."""
    h = seeded_h(seed, d, n)
    defect = chaos.commutation_defect(h, (1,), n)
    expected = {
        ((1, i), a): factorial(n) // prod(map(factorial, a)) * prod(map(pow, h, a)) * h[i - 1]
        for a in (hermite_key(b, d)[1] for b in enum_basis(d, n, 0))
        for i in range(2, d + 1)
    }
    ok = defect.scale(factorial(n)) == FormField.from_hermite(d, 2, expected)
    degrees = {sum(a) for (_, a), c in expected.items() if c} if ok else defect.hermite_degrees()
    details = {"h": [str(c) for c in h], "order": n, "defect_degrees": sorted(degrees)}
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


def transposition_sum(v):
    """T v: the sum over all slot transpositions (i j), i < j, of the
    permuted full tensor v."""
    n = v.n
    swaps = (Permutation.transposition(n, i, j) for i, j in combinations(range(1, n + 1), 2))
    return FullTensor._trusted((v.dim, n), lincomb((1, permute(v, p).coeffs) for p in swaps))


def family_holds(n, j):
    """The family check of the certificate on full tensors over R^n: T
    applied by permuting slots, and each witness sum written out with
    Permutation.transposition."""
    s = FockTensor.basis(n, _distinct_label(n, j))
    e = embed(s)
    z = e
    for c in (_hook_content(j, n - j), _hook_content(j + 1, n - j - 1)):
        z = transposition_sum(z) - z.scale(c)
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


def rep_split_dims(n, k):
    """The dimensions of the two pieces of the distinct label's orbit by
    elimination in position-set coordinates: the ranks of T - c(k, q) and
    T - c(k+1, q-1) over the C(n, k) sets, T from _set_transposition_sum."""
    q = n - k
    sets = list(combinations(range(1, n + 1), k))
    t_of = {s: rep_theory._set_transposition_sum(n, {s: 1}) for s in sets}
    return tuple(
        matrix_rank([lincomb(((1, t_of[s]), (-c, {s: 1}))) for s in sets])
        for c in (_hook_content(k, q), _hook_content(k + 1, q - 1))
    )


def repeated_orbit(n, k):
    """The copies of embed(e_(1^k; 1..q)) at the k-sets S, over k!, in
    coordinates keyed by the (k+1)-set of slots holding 1: the sum over the
    slots r outside S of (-1)^#{slots outside S before r} [S + {r}], or [S]
    at q = 0."""
    columns = []
    for s in combinations(range(1, n + 1), k):
        rest = (r for r in range(1, n + 1) if r not in s)
        columns.append({tuple(sorted(s + (r,))): (-1) ** i for i, r in enumerate(rest)} or {s: 1})
    return columns


def witnesses(b, d):
    """Explicit members of the two neighbouring position-set families.

    For a label b with k, q >= 1 and w = embed(b), n = k + q:

      vplus  = (1/(k+1)) * sum_{l=1..k+1} (l <-> k+1) w
      vminus = (1/(q+1)) * (w - sum_{m=k+1..n} (k <-> m) w)

    vplus is symmetric in slots 1..k+1 and alternating in the rest;
    vminus is symmetric in slots 1..k-1 and alternating in slots k..n.
    """
    k, q = len(b.sym), len(b.alt)
    if k < 1 or q < 1:
        raise DegreeOutOfRange("witnesses need k >= 1 and q >= 1")
    n = k + q
    w = embed(FockTensor.basis(d, b))
    acc = FullTensor.zero(d, n)
    for l in range(1, k + 2):
        acc = acc + permute(w, Permutation.transposition(n, l, k + 1))
    vplus = acc / (k + 1)
    acc = w
    for m in range(k + 1, n + 1):
        acc = acc - permute(w, Permutation.transposition(n, k, m))
    vminus = acc / (q + 1)
    return vplus, vminus


def symmetric_group(n):
    """All n! slot permutations, in lexicographic image order."""
    for images in permutations(range(1, n + 1)):
        yield Permutation(images)


def _check_positions(t, positions):
    pos = tuple(sorted(positions))
    if len(set(pos)) != len(pos) or any(not 1 <= p <= t.n for p in pos):
        raise InvalidIndex(f"positions {pos!r} invalid for degree {t.n}")
    return pos


def _average(t, positions, signed):
    """(Signed) average of the slot permutations moving only `positions`."""
    pos = _check_positions(t, positions)
    m = len(pos)
    if m <= 1:
        return t
    inv_m = Fraction(1, factorial(m))
    out = {}
    for key, c in t.coeffs.items():
        c = c * inv_m
        sub = [key[p - 1] for p in pos]
        for sign, sigma in _signed_arrangements(m):
            new = list(key)
            for p, s in zip(pos, sigma):
                new[p - 1] = sub[s]
            new = tuple(new)
            out[new] = out.get(new, 0) + (sign * c if signed else c)
    return FullTensor._trusted((t.dim, t.n), out)


def sym_subset(t, positions):
    """Average of the slot permutations fixing everything off `positions`."""
    return _average(t, positions, signed=False)


def alt_subset(t, positions):
    """Signed average of the slot permutations moving only `positions`."""
    return _average(t, positions, signed=True)


def project_mixed(t, k):
    """Collapse a full tensor onto H_{k,q} coordinates, q = n - k.

    Symmetrizing the first k slots, antisymmetrizing the rest and then
    rewriting each slot key as a canonical label is the same as rewriting
    directly: sorting the symmetric part forgets the arrangement and the
    two signs on the wedge part cancel.  So each key contributes its
    coefficient, with the sign that sorts its last q entries, to the
    canonical label; keys with a repeat in the last q slots die.
    """
    if not 0 <= k <= t.n:
        raise InvalidIndex(f"k must be within 0..{t.n}, got {k}")
    out = {}
    for key, c in t.coeffs.items():
        res = sort_sign(key[k:])
        if res is None:
            continue
        sign, alt = res
        label = MixedIndex(tuple(sorted(key[:k])), alt)
        out[label] = out.get(label, 0) + sign * c
    return FockTensor._trusted((t.dim, k, t.n - k), out)


def inner_full(t, u):
    """Slot-wise pairing on the full tensor power (basis keys orthonormal)."""
    t._check_same(u)
    return dot(t.coeffs, u.coeffs)
