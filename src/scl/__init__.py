"""Subgroup and curve censuses on cusped hyperbolic surfaces.

Subgroups of the fundamental group live as folded core graphs; their
convex-core boundaries come from a ribbon structure; holonomy traces
give lengths; and mapping-class orbit balls drive the counting
experiments.
"""

from .currents import (
    Multicurve,
    RationalSubsetCurrent,
    area,
    boundary_projection,
    evaluate_functional,
    length_gc,
    length_sc,
)
from .geometry import SurfaceStructure, geodesic_length, holonomy_trace, modular_torus
from .graphs import (
    CoreGraph,
    SubgroupClass,
    canonical_key,
    contains,
    finite_index_subgroups,
    fold,
    index,
    spanning_generators,
    subgroup_class,
    subgroups_of_index,
)
from .mcg import OrbitBall, act_on_multicurve, act_on_subgroup, orbit_ball, twist_generators
from .census import (
    CensusTable,
    christoffel_word,
    count_by_length,
    fiber_histogram,
    fit_exponent,
    mlz_census,
    scc_census,
)
from .ribbon import BoundaryReport, boundary_cycles, classify_boundary
from .words import Automorphism, ConjClass, apply, conj_class, primitive_root, reduce, word_from_str, word_to_str

__version__ = "0.1.0"
