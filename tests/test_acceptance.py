"""Seven-point acceptance gate, all exact rational equality, no tolerances.

Each test sweeps one headline identity over its full desk-scale grid and
prints a single [criterion N] line so the run log shows the gate at a
glance.
"""

import hashlib
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import hodgefock
from hodgefock import (
    FockTensor,
    alt_subset,
    block_dim,
    chaos_field,
    codifferential,
    embedded_subspace,
    enum_basis,
    exactness_report,
    exterior_derivative,
    gaussian_inner,
    hodge_laplacian,
    hodge_split,
    inner,
    intersect,
    lower,
    operator_matrix,
    orbit_span,
    orbit_split_dims,
    orbit_split_spaces,
    ornstein_uhlenbeck,
    raise_,
    random_tensor,
    span_all_positions,
    sym_subset,
    symmetric_group,
    weitzenboeck_defect,
    witnesses,
)
from hodgefock.chaos import Poly
from hodgefock.rep_theory import action_trace, has_distinct_indices


def _announce(capsys, number, name, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[criterion {number}] {name}: {status}")
    assert not failures, failures[:5]


def test_criterion_1_weitzenboeck(capsys):
    failures = []
    for d in range(1, 5):
        for n in range(1, 6):
            for k in range(n + 1):
                q = n - k
                if block_dim(d, k, q) == 0:
                    continue
                defect = weitzenboeck_defect(d, k, q)
                if defect != 0:
                    failures.append((d, k, q, defect))
    _announce(capsys, 1, "degree identity raise.lower + lower.raise = n id", failures)


def test_criterion_2_exactness(capsys):
    failures = []
    for d in range(1, 5):
        for n in range(1, 6):
            report = exactness_report(d, n)
            for label, ok in (
                ("rank_nullity", report.rank_nullity_ok()),
                ("lower_exact", report.lower_exact()),
                ("raise_exact", report.raise_exact()),
                ("harmonic_trivial", report.harmonic_trivial()),
                ("is_exact", report.is_exact()),
            ):
                if not ok:
                    failures.append((d, n, label))
    _announce(capsys, 2, "kernels equal images, no harmonic part", failures)


def test_criterion_3_hodge_split(capsys):
    failures = []
    for d in range(1, 4):
        for n in range(1, 5):
            for k in range(n + 1):
                q = n - k
                if block_dim(d, k, q) == 0:
                    continue
                rng = random.Random(f"acceptance:split:{d}:{k}:{q}")
                for trial in range(100):
                    t = random_tensor(d, k, q, rng)
                    plus, minus = hodge_split(t)
                    zero = FockTensor.zero(d, k, q)
                    checks = [
                        plus + minus == t,
                        lower(plus).is_zero(),
                        raise_(minus).is_zero() if q >= 1 else plus.is_zero(),
                        inner(plus, minus) == 0,
                        hodge_split(plus) == (plus, zero),
                        hodge_split(minus) == (zero, minus),
                    ]
                    if not all(checks):
                        failures.append((d, k, q, trial, checks))
    _announce(capsys, 3, "split is exact, orthogonal and idempotent", failures)


def test_criterion_4_decomposition_by_intersection(capsys):
    failures = []
    for d in range(1, 4):
        for n in range(1, 5):
            for k in range(n + 1):
                q = n - k
                dim = block_dim(d, k, q)
                if dim == 0:
                    continue
                block = embedded_subspace(d, k, q)
                up = intersect(block, span_all_positions(d, k + 1, q - 1))
                down = intersect(block, span_all_positions(d, k - 1, q + 1))
                ker_lower = dim - operator_matrix("lower", d, k, q).rank()
                checks = [
                    up.dim + down.dim == dim,
                    intersect(up, down).dim == 0,
                    up.dim == ker_lower,
                ]
                if not all(checks):
                    failures.append((d, k, q, up.dim, down.dim, dim, ker_lower))
    _announce(capsys, 4, "block splits into the two neighbor intersections", failures)


def test_criterion_5_representation_split(capsys):
    failures = []
    for n in range(1, 6):
        d = n
        for k in range(n + 1):
            q = n - k
            labels = [b for b in enum_basis(d, k, q) if has_distinct_indices(b)]
            if not labels:
                failures.append((d, k, q, "no distinct-index label"))
                continue
            for b in labels:
                orbit = orbit_span(b, d)
                if orbit.dim != comb(n, k):
                    failures.append((b, "orbit_dim", orbit.dim))
                    continue
                expected = (comb(n - 1, q - 1) if q >= 1 else 0, comb(n - 1, q))
                if orbit_split_dims(b, d) != expected:
                    failures.append((b, "split_dims", orbit_split_dims(b, d)))
                    continue
                if k >= 1 and q >= 1:
                    vplus, vminus = witnesses(b, d)
                    member_ok = (
                        not vplus.is_zero()
                        and not vminus.is_zero()
                        and orbit.contains(vplus)
                        and orbit.contains(vminus)
                        and sym_subset(vplus, range(1, k + 2)) == vplus
                        and alt_subset(vplus, range(k + 2, n + 1)) == vplus
                        and alt_subset(vminus, range(k, n + 1)) == vminus
                        and sym_subset(vminus, range(1, k)) == vminus
                    )
                    if not member_ok:
                        failures.append((b, "witnesses"))
                if n <= 4:
                    plus, minus = orbit_split_spaces(b, orbit)
                    for p in symmetric_group(n):
                        if action_trace(orbit, p) != action_trace(plus, p) + action_trace(
                            minus, p
                        ):
                            failures.append((b, "character", p.images))
                            break
    _announce(capsys, 5, "orbit splits into the two hook pieces", failures)


def test_criterion_6_chaos_model(capsys):
    failures = []

    # isometry on all symmetric basis pairs up to total degree 6
    for d in range(1, 4):
        labels = []
        for k in range(0, 7):
            labels.extend((k, b) for b in enum_basis(d, k, 0))
        fields = {b: chaos_field(FockTensor.basis(d, b)) for _, b in labels}
        for i, (ka, a) in enumerate(labels):
            for kb, b in labels[i:]:
                got = gaussian_inner(fields[a], fields[b])
                want = (
                    inner(FockTensor.basis(d, a), FockTensor.basis(d, b)) if ka == kb else 0
                )
                if got != want:
                    failures.append(("isometry", d, a, b, got, want))

    # transported diagram, both routes, and the laplacian eigenvalue
    for d in range(1, 4):
        for n in range(1, 6):
            for k in range(n + 1):
                q = n - k
                for b in enum_basis(d, k, q):
                    t = FockTensor.basis(d, b)
                    u = chaos_field(t)
                    if exterior_derivative(u) != chaos_field(lower(t)):
                        failures.append(("diagram-lower", d, b))
                    if q >= 1 and codifferential(u) != chaos_field(raise_(t)):
                        failures.append(("diagram-raise", d, b))
                    lap = hodge_laplacian(u)
                    if lap != u.scale(n):
                        failures.append(("laplacian-eigenvalue", d, b))
                    rebuilt = type(u).zero(d, q)
                    for key, f in u.items():
                        rebuilt = rebuilt + type(u)(d, q, {key: ornstein_uhlenbeck(f) + f.scale(q)})
                    if lap != rebuilt:
                        failures.append(("laplacian-weitzenboeck", d, b))

    # adjointness of the two derivatives, exact to degree 5
    rng = random.Random("acceptance:chaos:adjoint")
    for d in range(1, 4):
        for q in range(0, min(d, 3)):
            for k in range(0, 5 - q):
                if block_dim(d, k, q) == 0 or block_dim(d, k, q + 1) == 0:
                    continue
                for _ in range(3):
                    u = chaos_field(random_tensor(d, k, q, rng))
                    v = chaos_field(random_tensor(d, k, q + 1, rng))
                    lhs = gaussian_inner(exterior_derivative(u), v)
                    rhs = gaussian_inner(u, codifferential(v))
                    if lhs != rhs:
                        failures.append(("adjoint", d, k, q, lhs, rhs))

    # harmonic forms vanish in positive degree; degree zero leaves constants
    for q in (1, 2, 3):
        for d in range(q, 4):
            for n in range(q, 6):
                k = n - q
                for b in enum_basis(d, k, q):
                    u = chaos_field(FockTensor.basis(d, b))
                    if hodge_laplacian(u) != u.scale(n) or n < 1:
                        failures.append(("harmonic-positive-degree", d, b))
    if not ornstein_uhlenbeck(Poly.const(3, 7)).is_zero():
        failures.append(("harmonic-constants", "L(const) != 0"))
    for d in range(1, 4):
        for k in range(1, 6):
            for b in enum_basis(d, k, 0):
                u = chaos_field(FockTensor.basis(d, b))
                if hodge_laplacian(u) != u.scale(k):
                    failures.append(("harmonic-degree-zero", d, b))

    _announce(capsys, 6, "Gaussian model matches the tensor calculus", failures)


# sha256 of the passing report below, also in tests/test_cli.py::RECORDED_DIGESTS.
CRITERION_7_DIGEST = "9c4f28044598c527d6ba2d99415f730f9629e5abc14a194ab5fbfaf91d9828b3"


def test_criterion_7_cli_determinism(capsys):
    cmd = [
        sys.executable,
        "-m",
        "hodgefock",
        "verify",
        "all",
        "--max-dim",
        "3",
        "--max-n",
        "4",
        "--seed",
        "42",
        "--format",
        "json",
    ]
    # Run from the package's source root so that `-m hodgefock` imports
    # the code under test whether or not it is installed.  One run is
    # serial and one pooled; both must give the recorded bytes.
    src = Path(hodgefock.__file__).resolve().parents[1]
    runs = {
        workers: subprocess.run(
            cmd, capture_output=True, cwd=src, env={**os.environ, "HODGEFOCK_WORKERS": workers}
        )
        for workers in ("1", "2")
    }
    failures = []
    for workers, run in runs.items():
        digest = hashlib.sha256(run.stdout).hexdigest()
        if run.returncode != 0 or digest != CRITERION_7_DIGEST:
            failures.append((workers, run.returncode, digest[:8], run.stderr.decode()[:200]))
    _announce(capsys, 7, "verify all is deterministic and green", failures)
