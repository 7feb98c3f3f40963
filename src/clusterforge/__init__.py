"""Exact computation in the integral cluster category of an acyclic quiver.

Hom and Ext groups over the integral path algebra, the Serre functor and
AR translation on lattices, rigid object pools, cluster-tilting
mutation, and exchange-graph exploration, all in exact integer
arithmetic.
"""

from .errors import (
    BalanceUnsolvable,
    ClusterForgeError,
    ConstructionFailed,
    CyclicQuiver,
    DimensionMismatch,
    FormatError,
    IsInjective,
    IsProjective,
    NoSolution,
    NotASummand,
    NotExceptional,
    NotFoundWithinBound,
    PreconditionViolated,
    SimpleAtVertex,
    VertexNotSinkOrSource,
)
from .memo import clear_caches
from .quiver import Quiver, coxeter_apply, dynkin_type, euler_form, validate
from .zlinalg import FinAbGroup, IntMatrix, cokernel_structure, kernel_basis, snf, solve
from .rep import (
    FieldRep,
    Hom,
    ProjResolution,
    ZRep,
    base_change,
    dim_vector,
    direct_sum,
    ext1_group,
    field_hom_ext_dims,
    hom_group,
    injective_lattice,
    is_exceptional,
    is_rigid,
    make_lattice,
    projective,
    projective_resolution,
    simple,
    strip_summand,
    torsion_simple,
    are_isomorphic_exceptional,
)
from .serre import ShiftedModule, f_apply, reflect, tau, tau_inv
from .cluster import (
    ClusterObject,
    ExchangeGraph,
    RigidPool,
    build_pool,
    exchange_graph,
    exchange_triangles,
    ext1_c,
    g_functor,
    hom_c,
    is_cluster_tilting,
    mutate,
    mutate_construct,
    suspension,
    verify_bijection_mod_p,
)

__version__ = "0.1.0"
