"""What src/ holds: the verify path and a stated public API.

Every function and method defined under src/hodgefock is either called by
a serial `hodgefock verify all` run, rendered as JSON and as text, or
kept for a user named in ALLOWED.  hodgefock.__all__ is exactly the
"Public API" list of README.md.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import hodgefock
from hodgefock.cli import main

from conftest import clear_caches

SRC = Path(hodgefock.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

EDGE = "public edge: tests and users build, combine and print containers with it"
PERMUTATION = "Permutation, public: the group operations that tests and users compose"
TRACER = "benchmarks/tracer.py LAYERS times it (and benchmarks/test_bench.py checks it)"
MATRIX = "the slow public reference: the tests' oracles build, multiply and compare matrices"

# Functions and methods that no verify run calls, each with its user.
ALLOWED = {
    "chaos._check_multidegrees": "validates the Poly and HermiteExpansion constructors",
    "chaos.Poly.__init__": EDGE,
    "chaos.Poly.zero": EDGE,
    "chaos.Poly.const": EDGE,
    "chaos.Poly.variable": EDGE,
    "chaos.Poly.__mul__": EDGE,
    "chaos.hermite": EDGE,
    "chaos.HermiteExpansion.__init__": EDGE,
    "chaos.HermiteExpansion.to_poly": EDGE,
    "chaos.FormField.__init__": EDGE,
    "chaos.FormField.zero": EDGE,
    "chaos.FormField.component": "ornstein_uhlenbeck, and users reading one component",
    "chaos.ornstein_uhlenbeck": "the paper's OU operator; ROADMAP item 6 puts it on the verify path",
    "chaos.FormField.hermite_degrees": "users, and the tests' seeded chaos-truncation oracle",
    "chaos.exp_vector": "public API; " + TRACER,
    "chaos.exp_vector.<locals>.coeff": "exp_vector",
    "chaos.commutation_defect": "public API; " + TRACER,
    "chaos.chaos_field": "public API, the tests' whole-block dictionary oracle; " + TRACER,
    "chaos.FormField.hermite_coords": "gaussian_inner, hermite_degrees, and the tests' round trip",
    "chaos.FormField.items": "FormField.hermite_coords, and users reading the components",
    "chaos.HermiteExpansion.from_poly": "FormField.hermite_coords, and users; " + TRACER,
    "chaos._monomial_in_he": "HermiteExpansion.from_poly",
    "chaos._x_power_in_he": "_monomial_in_he",
    "chaos.gaussian_inner": "public API, the tests' whole-block isometry oracle; " + TRACER,
    "linalg.dot": "gaussian_inner, and the tests' slot-wise pairing inner_full",
    "tensor_core.inner": "public API, the Fock pairing of the tests' isometry oracle; " + TRACER,
    "chaos._render_monomial": EDGE,
    "chaos.FormField._render_key": EDGE,
    "linalg._render_tuple": EDGE,
    "linalg.SparseVector.render": EDGE,
    "linalg.SparseVector.__repr__": EDGE,
    "rep_theory.Subspace.__repr__": EDGE,
    "tensor_core.FockTensor.zero": EDGE,
    "fock_ops.Permutation.identity": PERMUTATION,
    "fock_ops.Permutation.__call__": PERMUTATION,
    "fock_ops.Permutation.__mul__": PERMUTATION,
    "fock_ops.Permutation.sign": PERMUTATION,
    "fock_ops.Permutation.__eq__": PERMUTATION,
    "fock_ops.Permutation.__hash__": PERMUTATION,
    "fock_ops.Permutation.__repr__": PERMUTATION,
    "linalg.EchelonBasis.__eq__": "Subspace.__eq__",
    "linalg.EchelonBasis.coordinates": "Subspace.coordinates",
    "fock_ops.Permutation.inverse": PERMUTATION,
    "rep_theory.Subspace.__init__": "spanned_by, _position_span, intersect, orbit_split_spaces",
    "rep_theory.Subspace._check": "Subspace.add, .contains and .coordinates",
    "rep_theory.Subspace.add": "Subspace.spanned_by, _position_span and orbit_split_spaces",
    "rep_theory.Subspace.dim": "orbit_split_spaces, and the tests' oracles compare dimensions",
    "rep_theory.Subspace.__eq__": "the tests compare spans with it",
    "rep_theory.Subspace.coordinates": "the tests' action_trace oracle reads it",
    "rep_theory.Subspace.spanned_by": "embedded_subspace, and the tests' elimination oracle",
    "rep_theory.orbit_span": TRACER,
    "rep_theory._position_span": "orbit_span and span_all_positions",
    "rep_theory.position_permutation": "orbit_span and span_all_positions",
    "tensor_core.embed": TRACER,
    "tensor_core._signed_arrangements": "embed",
    "fock_ops.permute": TRACER,
    "rep_theory.embedded_subspace": TRACER,
    "rep_theory.span_all_positions": TRACER,
    "rep_theory.intersect": TRACER,
    "rep_theory.orbit_split_spaces": TRACER,
    "rep_theory.action_trace": TRACER,
    "rep_theory.Subspace.basis": "benchmarks/tracer.py sizes subspaces with it; orbit_split_spaces",
    "rep_theory.Subspace.contains": "action_trace, and the tests' witness oracle",
    "linalg.EchelonBasis.contains": "Subspace.contains",
    "linalg.EchelonBasis.rows": "Subspace.basis and intersect",
    "linalg.EchelonBasis.__init__": "Subspace, matrix_rank and kernel_basis",
    "linalg.EchelonBasis.dim": "Subspace.dim and matrix_rank",
    "linalg.EchelonBasis.insert": "Subspace.add and intersect",
    "linalg.EchelonBasis._reduce": "EchelonBasis.insert, .contains and .coordinates",
    "linalg._integer_row": "EchelonBasis._reduce",
    "linalg._cancel": "EchelonBasis._reduce and .insert",
    "linalg._primitive": "EchelonBasis.insert",
    "linalg.kernel_basis": "intersect",
    "linalg.matrix_rank": TRACER,
    "linalg.SparseVector.__neg__": EDGE,
    "tensor_core.FullTensor.__init__": EDGE,
    "tensor_core.FullTensor.zero": EDGE,
    "hodge.random_tensor": TRACER,
    "fock_ops.operator_matrix": "public API, " + MATRIX + "; " + TRACER,
    "fock_ops.gram_matrix": "public API, " + MATRIX,
    "fock_ops.LinearMap.__init__": EDGE,
    "fock_ops.LinearMap.identity": MATRIX,
    "fock_ops.LinearMap.__matmul__": MATRIX,
    "fock_ops.LinearMap.transpose": MATRIX,
    "fock_ops.LinearMap.apply": MATRIX,
    "fock_ops.LinearMap.max_abs_entry": MATRIX,
    "fock_ops.LinearMap.columns": MATRIX + ", and eliminate their columns",
    "linalg.SparseVector.__sub__": EDGE,
    "tensor_core.FockTensor.signature": EDGE,
    "hodge.ExactnessReport.is_exact": "users of exactness_report: the whole complex at once",
    "hodge.ExactnessRow.rank_nullity_ok": "users of exactness_report, and the tests' elimination oracle",
    "cli._process_pool": "pooled runs, HODGEFOCK_WORKERS > 1",
    "cli.parse_report": "benchmarks/test_bench.py and the tests read reports back",
    "cli.run_verify": "the tests collect a run's cases in a list, over main's iterator",
    "cli.render_report": "the tests render a collected report, through main's writer",
    "__init__.__getattr__": "hodgefock.<name> for users and tests; the driver imports modules",
}


def _defined() -> dict:
    """{(module, first line): "module.qualname"} for every def under src/;
    a decorated def starts at its first decorator, as its code object does."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [dec.lineno for dec in child.decorator_list])
                out[(module, first)] = f"{module}.{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return out


def test_every_function_is_reached_by_verify_or_kept_for_a_named_user(tmp_path, monkeypatch):
    monkeypatch.setenv("HODGEFOCK_WORKERS", "1")
    clear_caches()
    reached = set()
    root = str(SRC)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            reached.add((Path(frame.f_code.co_filename).stem, frame.f_code.co_firstlineno))

    grid = ["verify", "all", "--max-dim", "4", "--max-n", "5"]
    sys.setprofile(profile)
    try:
        for fmt in ("json", "text"):
            assert main([*grid, "--format", fmt, "--out", str(tmp_path / f"report.{fmt}")]) == 0
    finally:
        sys.setprofile(None)
    defined = _defined()
    unreached = {name for key, name in defined.items() if key not in reached}
    stray = sorted(unreached - set(ALLOWED))
    assert not stray, f"reached by no verify run and kept for no user: {stray}"
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"allowed, but reached or no longer defined: {stale}"
    assert all(ALLOWED.values())


def _readme_api() -> dict:
    """{name: user} from the bullets of README.md's "Public API" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    out = {}
    for line in section.splitlines():
        if line.startswith("- "):
            match = re.fullmatch(r"- ((?:`\w+`, )*`\w+`): (\S.*)", line)
            assert match, line
            for name in re.findall(r"`(\w+)`", match.group(1)):
                assert name not in out, name
                out[name] = match.group(2)
    return out


def test_all_is_the_readme_public_api():
    exported, listed = set(hodgefock.__all__), set(_readme_api())
    assert not exported - listed, f"in __all__, not in README: {sorted(exported - listed)}"
    assert not listed - exported, f"in README, not in __all__: {sorted(listed - exported)}"


def test_every_public_name_resolves_to_its_modules_binding():
    # Names resolve on first access and are never stored in the package,
    # so each read gives the home module's current binding.
    for name in hodgefock.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"hodgefock.{hodgefock._HOME[name]}")
        assert getattr(hodgefock, name) is vars(home)[name], name
        assert name not in vars(hodgefock), name
    with pytest.raises(AttributeError, match="no_such_name"):
        hodgefock.no_such_name
