"""Exact-arithmetic verification of Hodge calculus on finite Fock truncations.

Mixed tensor blocks (symmetric degree k, antisymmetric degree q) over R^d
with rational coefficients, the degree-shifting interchange operators
between them, and three machine-checked storylines: the Weitzenboeck
identity, the exactness and Hodge splitting of the induced complexes, and
the Gaussian (Hermite) polynomial model where the same operators act as
the Malliavin derivative and divergence.
"""

__version__ = "0.1.0"

from .chaos import (
    FormField,
    GradedFock,
    HermiteExpansion,
    Poly,
    chaos_field,
    codifferential,
    commutation_defect,
    exp_vector,
    exterior_derivative,
    gaussian_inner,
    hermite,
    hodge_laplacian,
    ornstein_uhlenbeck,
)
from .errors import (
    ConfigError,
    DegreeOutOfRange,
    DimensionMismatch,
    InvalidIndex,
    NotInvariant,
)
from .fock_ops import (
    LinearMap,
    Permutation,
    gram_matrix,
    lower,
    operator_matrix,
    permute,
    raise_,
)
from .hodge import (
    ExactnessReport,
    ExactnessRow,
    exactness_report,
    hodge_split,
    random_tensor,
    weitzenboeck_defect,
    witnesses,
)
from .rep_theory import (
    Subspace,
    action_trace,
    decomposition_dims,
    embedded_subspace,
    intersect,
    orbit_span,
    orbit_split_spaces,
    span_all_positions,
)
from .tensor_core import (
    FockTensor,
    FullTensor,
    MixedIndex,
    block_dim,
    embed,
    enum_basis,
    inner,
    weight_patterns,
)

# Every public name is a class or a function imported above; the
# submodules bound by those imports are not callable.
__all__ = ["__version__"] + [
    name for name, value in list(globals().items()) if callable(value) and name[0] != "_"
]
