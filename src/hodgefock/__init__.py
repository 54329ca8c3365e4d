"""Exact-arithmetic verification of Hodge calculus on finite Fock truncations.

Mixed tensor blocks (symmetric degree k, antisymmetric degree q) over R^d
with rational coefficients, the degree-shifting interchange operators
between them, and three machine-checked storylines: the Weitzenboeck
identity, the exactness and Hodge splitting of the induced complexes, and
the Gaussian (Hermite) polynomial model where the same operators act as
the Malliavin derivative and divergence.

Each public name is read from its module on every access (PEP 562).
`import hodgefock` loads hodge and rep_theory, with the core modules they
import; chaos, the largest module, loads on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# Loaded here, not per suite: benchmarks/tracer.py wraps the layer functions
# right after importing hodgefock.cli, and a module loaded after that binds
# wrappers that its restore does not undo.
from . import hodge, rep_theory  # noqa: E402,F401

# The public names of each module.
_PUBLIC = {
    "chaos": """FormField GradedFock HermiteExpansion Poly chaos_field codifferential
        commutation_defect exp_vector exterior_derivative gaussian_inner hermite
        hodge_laplacian ornstein_uhlenbeck""",
    "errors": "ConfigError DegreeOutOfRange DimensionMismatch InvalidIndex NotInvariant",
    "fock_ops": "LinearMap Permutation gram_matrix lower operator_matrix permute raise_",
    "hodge": """ExactnessReport ExactnessRow exactness_report hodge_split random_tensor
        weitzenboeck_defect""",
    "rep_theory": """Subspace action_trace decomposition_dims embedded_subspace intersect
        orbit_span orbit_split_spaces span_all_positions""",
    "tensor_core": """FockTensor FullTensor MixedIndex block_dim embed enum_basis inner
        weight_patterns""",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    # Nothing is stored here: each access reads the module's current binding.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
