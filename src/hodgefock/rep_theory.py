"""Symmetric-group structure of the mixed position-set subspaces.

Inside the full tensor power, each choice of k slot positions carries a
copy of "symmetric there, alternating elsewhere".  The span of one label
over all slot permutations has at most two irreducible pieces, the hooks
(k+1, 1^{q-1}) and (k, 1^q).  The sum T of all slot transpositions is
central in Q[S_n] and acts on the hook (a, 1^b) by its content sum
c(a, b) (Okounkov & Vershik 1996).  Read through embed, lower . raise_
is T - c(k, q) and raise_ . lower is c(k+1, q-1) - T, so this split and
the hodge split are one decomposition in two coordinate systems.

Both suites here read the orbit of the distinct label s = e_(1..j; j+1..n)
in position-set coordinates.  Moved onto a j-set S of slots by
position_permutation, e = embed(s) holds the entries 1..j in the slots of
S, so the copies at different S have disjoint supports and are a basis of
the orbit span: C(n, j) coordinates, keyed by S as a sorted tuple.  A slot
permutation p sends the copy at S to the copy at p(S), signed by the
order in which p leaves the other slots (_set_permute); T and every
witness below are sums of that action.

decomposition_dims proves the split per weight block (tensor_core) by a
certificate with no rank in the tensor power.  Let U be the embedded
block of mu in H_{k,q}, and P+ (P-) the span of the embedded labels of
H_{k+1,q-1} (H_{k-1,q+1}) at every choice of slot positions.
1. Z+ = (T - c(k+1,q-1)) (T - c(k+2,q-2)) kills P+, and
   Z- = (T - c(k-1,q+1)) (T - c(k,q)) kills P-.  T commutes with slot
   permutations and with index maps e_i -> e_f(i) in every slot, so one
   generator covers every label, pattern and d (_family_holds).
2. c(a, n-a) = a n - n(n+1)/2, so Z+ and Z- are coprime in T.  By Bezout
   dim(U & P+) + dim(U & P-) <= dim U <= block_dim(mu, k, q).
3. The witnesses embed(lower s) = e - sum_{m>k+1} (k+1 m) e and
   embed(raise_ s) = e + sum_{m<k} (m k) e, e = embed(s), bound the two
   below by the ranks of lower and raise_.  When these fill the block,
   every inequality is an equality.  _embeds checks a witness v of s in
   H_{j,n-j} against t = lower s in H_{a,n-a}, a = j-1 (or raise_ s,
   a = j+1): each (i i+1) inside slots 1..a fixes v, each inside a+1..n
   negates it, and on the C(n, a) keys sorted within both slot groups,
   which then fix v, v reads t's coefficients.  Such a key meets one
   copy, at the slots holding 1..j, signed by its entries > j in slot order.

The rep case splits the orbit of e itself, s in H_{k,q}.  Step 1 of
_family_holds(n, k) makes T diagonalisable there, with the eigenvalues
c+ = c(k+1, q-1) and c- = c(k, q) = c+ - n.  Each copy is a signed image
of e and T is central, so T has one diagonal entry at every copy, and the
trace C(n, k) diag = m+ c+ + m- c- gives the pieces' dimensions.  Its
witnesses are those of step 3 at j = k, and at n <= 4 each class
representative (one per cycle type of S_n) commutes with T.  The index
map e_i -> e_max(1,i-k) in every slot commutes with slot permutations, so
it sends the copy of e at S to k! times that of embed(b), b = e_(1^k; 1..q):
sum_{r not in S} (-1)^#{slots outside S before r} [S + {r}], keyed by the
slots holding 1 (2..q alternate in the others), or [S] at q = 0.  That is
raise_ of the label S of the block of 1^n, keyed by the complement of the
alternating set.

orbit_span, embedded_subspace, span_all_positions, intersect,
orbit_split_spaces and action_trace build and read spaces by elimination
in the tensor power.  No verify case calls them.

The decomposition and rep cases of `hodgefock verify` are here; their
Fock ranks are traces of hodge's certificates (operator_rank).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import DegreeOutOfRange, DimensionMismatch, InvalidIndex, NotInvariant
from .fock_ops import Permutation, lower, permute, raise_
from .hodge import _complex_failure, _hook_ranks, exactness_report, hodge_split, operator_rank
from .linalg import EchelonBasis, kernel_basis, lincomb
from .tensor_core import FockTensor, FullTensor, MixedIndex, _partitions, block_dim, embed
from .tensor_core import enum_basis, perm_sign, weight_patterns


class Subspace:
    """Subspace of the full tensor power, held as a reduced echelon basis.

    The stored basis is canonical (fully reduced primitive integer rows
    with positive pivots, see EchelonBasis), so two Subspace objects are
    equal iff they are the same subspace of the same ambient power.
    basis() returns those rows and coordinates() reads t on them.
    """

    __slots__ = ("dim_ground", "degree", "_ech")

    def __init__(self, dim_ground: int, degree: int):
        self.dim_ground = dim_ground
        self.degree = degree
        self._ech = EchelonBasis()

    @classmethod
    def spanned_by(cls, dim_ground: int, degree: int, vectors) -> "Subspace":
        out = cls(dim_ground, degree)
        for v in vectors:
            out.add(v)
        return out

    def _check(self, t: FullTensor) -> None:
        if (t.dim, t.n) != (self.dim_ground, self.degree):
            raise DimensionMismatch(
                f"tensor in {(t.dim, t.n)}, subspace ambient {(self.dim_ground, self.degree)}"
            )

    def add(self, t: FullTensor) -> bool:
        self._check(t)
        return self._ech.insert(t.coeffs)

    @property
    def dim(self) -> int:
        return self._ech.dim

    def contains(self, t: FullTensor) -> bool:
        self._check(t)
        return self._ech.contains(t.coeffs)

    def basis(self) -> list[FullTensor]:
        """The canonical basis: coprime integer vectors in pivot order."""
        shape = (self.dim_ground, self.degree)
        return [FullTensor._trusted(shape, row) for row in self._ech.rows()]

    def coordinates(self, t: FullTensor) -> list:
        """Coefficients of t in the canonical basis; NotInvariant if outside."""
        self._check(t)
        coords = self._ech.coordinates(t.coeffs)
        if coords is None:
            raise NotInvariant("vector lies outside the subspace")
        return coords

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.dim_ground, self.degree) == (other.dim_ground, other.degree)
            and self._ech == other._ech
        )

    def __repr__(self):
        return f"Subspace(ambient=({self.dim_ground},{self.degree}), dim={self.dim})"


def position_permutation(n: int, k: int, positions: tuple[int, ...]) -> Permutation:
    """Slot relocation sending 1..k onto `positions` (order kept on both parts)."""
    rest = [p for p in range(1, n + 1) if p not in positions]
    images = [0] * n
    for s, p in enumerate(positions):
        images[s] = p
    for s, p in enumerate(rest):
        images[k + s] = p
    return Permutation(images)


def orbit_span(b: MixedIndex, d: int) -> Subspace:
    """Span of the slot-permutation orbit of embed(b).

    embed(b) is fixed (up to sign) by permutations preserving the two
    position groups, so representatives moving 1..k onto each k-subset of
    positions already span the orbit; the full n! sweep is used as a
    cross-check oracle in the tests.
    """
    k = len(b.sym)
    return _position_span(d, k + len(b.alt), k, [b])


def _position_span(d: int, n: int, k: int, labels) -> Subspace:
    """Span of embed(b) for each label b, placed at every k-subset of positions."""
    out = Subspace(d, n)
    for b in labels:
        w = embed(FockTensor.basis(d, b))
        for positions in combinations(range(1, n + 1), k):
            out.add(permute(w, position_permutation(n, k, positions)))
    return out


def span_all_positions(d: int, k: int, q: int) -> Subspace:
    """Span of every mixed block placed at every k-subset of slot positions.

    Degenerate degrees give the zero subspace of the right ambient power.
    """
    return _position_span(d, k + q, k, enum_basis(d, k, q))


def embedded_subspace(d: int, k: int, q: int) -> Subspace:
    """embed-image of the canonical block H_{k,q} (positions 1..k fixed)."""
    labels = enum_basis(d, k, q)
    return Subspace.spanned_by(d, k + q, (embed(FockTensor.basis(d, b)) for b in labels))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection, via the kernel of the stacked column system."""
    if (a.dim_ground, a.degree) != (b.dim_ground, b.degree):
        raise DimensionMismatch("subspaces live in different ambient powers")
    cols_a = a._ech.rows()
    cols_b = b._ech.rows()
    out = Subspace(a.dim_ground, a.degree)
    for tag in kernel_basis(cols_a + cols_b):
        out._ech.insert(lincomb((c, cols_a[j]) for j, c in tag.items() if j < len(cols_a)))
    return out


def _distinct_label(n: int, k: int) -> MixedIndex:
    return MixedIndex(tuple(range(1, k + 1)), tuple(range(k + 1, n + 1)))


def _hook_content(a: int, b: int) -> int:
    """c(a, b), the content sum of the hook (a, 1^b): T acts on it by this."""
    return a * (a - 1) // 2 - b * (b + 1) // 2


def _set_permute(vec: dict, p: Permutation) -> dict:
    """The slot action of p in position-set coordinates (module docstring):
    the copy at S goes to the copy at p(S), times the sign of p(r) for r
    running over the slots outside S in increasing order."""
    images = p.images
    out = {}
    for s, c in vec.items():
        rest = (images[r - 1] for r in range(1, p.degree + 1) if r not in s)
        out[tuple(sorted(images[i - 1] for i in s))] = perm_sign(rest) * c
    return out


def _set_transposition_sum(n: int, vec: dict, pairs=None) -> dict:
    """Sum over the slot transpositions (i j) of the given pairs of the
    permuted vec, in position-set coordinates; over all pairs i < j (the
    central T) by default."""
    pairs = combinations(range(1, n + 1), 2) if pairs is None else pairs
    images = (_set_permute(vec, Permutation.transposition(n, i, j)) for i, j in pairs)
    return lincomb((1, image) for image in images)


def _embeds(t: FockTensor, j: int, sign: int, pairs) -> bool:
    """Step 3 in j-set coordinates: whether e + sign * sum of (i m) e over
    the pairs, e = {1..j: 1}, is embed(t) (module docstring)."""
    n, a, e = t.k + t.q, t.k, {tuple(range(1, j + 1)): 1}
    vec = lincomb(((1, e), (sign, _set_transposition_sum(n, e, pairs))))
    # Each (i i+1) inside slots 1..a fixes vec, each inside a+1..n negates it.
    adjacent = ((i, Permutation.transposition(n, i, i + 1)) for i in range(1, n) if i != a)
    typed = all(_set_permute(vec, p) == lincomb((((-1) ** (i > a), vec),)) for i, p in adjacent)
    read = {}
    for sym in combinations(range(1, n + 1), a):
        key = sym + tuple(m for m in range(1, n + 1) if m not in sym)
        c = vec.get(tuple(slot for slot, m in enumerate(key, 1) if m <= j), 0)
        if c:
            read[MixedIndex(sym, key[a:])] = perm_sign(m for m in key if m > j) * c
    return typed and read == t.coeffs


@lru_cache(maxsize=None)
def _family_holds(n: int, j: int) -> bool:
    """Steps 1 and 3 of the certificate on s = e_(1..j; j+1..n) over R^n:
    (T - c(j, n-j)) (T - c(j+1, n-j-1)) kills e = embed(s), and the
    witnesses of s are embed(lower s) and embed(raise_ s).  Cached per
    (n, j) and process: decomposition blocks and the rep case share it."""
    vec = {tuple(range(1, j + 1)): 1}
    for c in (_hook_content(j, n - j), _hook_content(j + 1, n - j - 1)):
        vec = lincomb(((1, _set_transposition_sum(n, vec)), (-c, vec)))
    s = FockTensor.basis(n, _distinct_label(n, j))
    return (
        not vec
        and (j == 0 or _embeds(lower(s), j, -1, [(j, m) for m in range(j + 1, n + 1)]))
        and (j == n or _embeds(raise_(s), j, 1, [(m, j + 1) for m in range(1, j + 1)]))
    )


def _pattern_block(mu: tuple[int, ...], k: int, q: int) -> tuple[int, int, int, bool]:
    """(dim, dim_plus, dim_minus, direct) of the weight block of mu: the ranks
    of lower from H_{k+1,q-1} and raise_ from H_{k-1,q+1}, which are those of
    raise_ and lower on the block (Im A and Im B, hodge), and whether the
    certificate of the module docstring holds."""
    n, dim = k + q, block_dim(mu, k, q)
    dim_minus, dim_plus = (operator_rank(which, mu, k, q) for which in ("lower", "raise"))
    roots_plus = {_hook_content(k + 1, q - 1), _hook_content(k + 2, q - 2)}
    direct = (
        (q == 0 or _family_holds(n, k + 1))
        and (k == 0 or _family_holds(n, k - 1))
        and roots_plus.isdisjoint({_hook_content(k, q), _hook_content(k - 1, q + 1)})
        and dim_plus + dim_minus == dim
    )
    return dim, dim_plus, dim_minus, direct


def decomposition_dims(d: int, k: int, q: int) -> tuple[int, int, int, bool]:
    """Dimensions of the embedded block H_{k,q} and of its two pieces.

    Returns (dim, dim_plus, dim_minus, direct): dim_plus and dim_minus are
    the dimensions of the intersections of embedded_subspace(d, k, q) with
    span_all_positions(d, k + 1, q - 1) and span_all_positions(d, k - 1, q + 1),
    and direct says that on every weight block the two meet only in zero
    and add up to the block.  Proved per multiplicity pattern by the
    certificate of the module docstring: Bezout bounds the pieces above,
    the ranks of lower and raise_ below, and these ranks fill the block.
    Negative k or q, or k + q < 1, raises DegreeOutOfRange.
    """
    if k < 0 or q < 0 or k + q < 1:
        raise DegreeOutOfRange(f"the decomposition needs k, q >= 0 and k + q >= 1, got ({k},{q})")
    blocks = [(count, _pattern_block(mu, k, q)) for mu, count in weight_patterns(d, k + q)]
    dims = (sum(count * block[i] for count, block in blocks) for i in range(3))
    return (*dims, all(block[3] for _, block in blocks))


def orbit_split_spaces(b: MixedIndex, orbit: Subspace) -> tuple[Subspace, Subspace]:
    """The two invariant pieces of orbit = orbit_span(b, d).

    T acts on the orbit span with the two hook eigenvalues
    c+ = c(k+1, q-1) and c- = c(k, q) = c+ - n.  Shifting by one eigenvalue
    and taking the image yields the other eigenspace: these are n times
    the two idempotents of the hodge split, read through embed.
    """
    k, q = len(b.sym), len(b.alt)
    n = k + q
    if n < 1:
        raise InvalidIndex("the split needs total degree k + q >= 1")
    c_plus, c_minus = _hook_content(k + 1, q - 1), _hook_content(k, q)
    plus, minus = Subspace(orbit.dim_ground, n), Subspace(orbit.dim_ground, n)
    swaps = [Permutation.transposition(n, *pair) for pair in combinations(range(1, n + 1), 2)]
    for v in orbit.basis():
        tv = sum((permute(v, p) for p in swaps), FullTensor.zero(orbit.dim_ground, n))
        plus.add(tv - v.scale(c_minus))
        minus.add(tv - v.scale(c_plus))
    if plus.dim + minus.dim != orbit.dim:
        raise NotInvariant("transposition sum has an unexpected eigenvalue")
    return plus, minus


def action_trace(space: Subspace, p: Permutation):
    """Trace of the slot action of p on an invariant subspace.

    The coordinate of p(v) on a canonical basis vector v with pivot key
    k is read at k, so v adds p(v)[k] / v[k] (NotInvariant if p(v)
    leaves the subspace).
    """
    if p.degree != space.degree:
        raise DimensionMismatch("permutation degree differs from ambient degree")
    total = Fraction(0)
    for v in space.basis():
        image = permute(v, p)
        if not space.contains(image):
            raise NotInvariant("vector lies outside the subspace")
        pivot = min(v.coeffs)
        total += Fraction(image.coeffs.get(pivot, 0), v.coeffs[pivot])
    return total


def class_representatives(n: int) -> list[Permutation]:
    """One permutation per cycle type of S_n: for each partition
    (l_1, l_2, ...) of n, the cycles (1 .. l_1)(l_1+1 .. l_1+l_2) ..."""
    out = []
    for shape in _partitions(n, n, n):
        images: list[int] = []
        for length in shape:
            start = len(images) + 1
            images += list(range(start + 1, start + length)) + [start]
        out.append(Permutation(images))
    return out


def _case_decomposition(d: int, n: int, k: int):
    q = n - k
    block = block_dim(d, k, q)
    failure = _complex_failure(d, n)
    if failure:
        return "fail", {"dim": block, **failure}
    dim, dim_plus, dim_minus, direct = decomposition_dims(d, k, q)
    ker_lower = exactness_report(d, n).row(k).ker_lower
    details = {"dim": dim, "dim_plus": dim_plus, "dim_minus": dim_minus, "ker_lower": ker_lower}
    # With direct, the embedded dimension ties dim_minus to rank(lower).
    ok = direct and dim == block and dim_plus == ker_lower
    # Independent of the certificate: the hook Kostka numbers, and their
    # sum C(len(mu), q), the block's dimension.
    for mu, _ in weight_patterns(d, n):
        low, up = _hook_ranks(len(mu), q)
        expected = [low + up, up, low]
        if list(_pattern_block(mu, k, q)[:3]) != expected:
            details.update(pattern=list(mu), expected=expected)
            return "fail", details
    return ("pass" if ok else "fail"), details


def _repeated_label(n: int, k: int) -> MixedIndex | None:
    if k >= 1 and n >= 2:
        return MixedIndex((1,) * k, tuple(range(1, n - k + 1)))
    return None


def _degenerate_orbit_dim(b: MixedIndex, d: int) -> int:
    """The rank of b's orbit predicted from (plus, minus) = hodge_split(e_b):
    the hook ranks of raise_ and lower with n parts, each counted when its
    piece is nonzero."""
    low, up = _hook_ranks(len(b.sym) + len(b.alt), len(b.alt))
    plus, minus = hodge_split(FockTensor.basis(d, b))
    return (0 if plus.is_zero() else up) + (0 if minus.is_zero() else low)


def _case_rep(d: int, n: int, k: int):
    q = n - k
    if n > d:
        return "skip", {"reason": "no distinct-index label", "dim": d, "n": n}
    # T's trace on the k-sets of slots gives the split (module docstring).
    e = tuple(range(1, k + 1))
    diag = _set_transposition_sum(n, {e: 1}).get(e, 0)
    plus, rest = divmod(comb(n, k) * (diag - _hook_content(k, q)), n)
    minus = comb(n, k) - plus
    low, up = _hook_ranks(n, q)
    details = {
        "label": _distinct_label(n, k).render(),
        "orbit_dim": comb(n, k),
        "split_dims": [plus, minus],
        "expected": [comb(n, k), up, low],
    }
    ok = _family_holds(n, k) and not rest and (up, low) == (plus, minus)
    if k >= 1 and q >= 1:
        # Step 3 at j = k: the witnesses are embed(raise_ s) and embed(lower s).
        details["witnesses"] = "ok" if _family_holds(n, k) else "bad"
    if n <= 4:
        # The class representatives include (1 2) and (1 2 ... n), which
        # generate S_n, so commuting with T makes both pieces invariant.
        # Their dims add up to the orbit's, so the characters add, and
        # characters are class functions: one permutation per class covers S_n.
        # p e_s is the one signed set sign e_p(s), so T(p e_s) is read off t_of.
        t_of = {s: _set_transposition_sum(n, {s: 1}) for s in combinations(range(1, n + 1), k)}
        char_ok = all(
            {key: sign * c for key, c in t_of[ps].items()} == _set_permute(t_s, p)
            for p in class_representatives(n)
            for s, t_s in t_of.items()
            for ps, sign in _set_permute({s: 1}, p).items()
        )
        details["character_additive"] = char_ok
        ok = ok and char_ok
    rep_label = _repeated_label(n, k)
    if rep_label is not None:
        # raise_ on the block of 1^n spans the orbit (module docstring).
        orbit_dim = operator_rank("raise", (1,) * n, k, q) if q else 1
        expected = _degenerate_orbit_dim(rep_label, d)
        details["degenerate"] = {
            "label": rep_label.render(),
            "orbit_dim": orbit_dim,
            "note": "degenerate-orbit",
        }
        if orbit_dim != expected:
            details["degenerate"]["expected"] = expected
            ok = False
    return ("pass" if ok else "fail"), details
