"""Extremal disc packings on compact non-orientable hyperbolic surfaces.

The packing arithmetic lives in `feasibility`; combinatorial surfaces as
edge-identified polygons in `complexes`; the genus-raising edge-grafting
rewrites in `grafting`; orientation double covers and cyclic covers in
`covers`; triangle-group coset machinery and the subgroup/complex bridge
in `trigroup`; the numeric unit-disk layer in `geometry`; and the shipped
certified examples in `catalog`.
"""

from .complexes import (
    ExtremalityReport,
    PolygonComplex,
    SurfaceInvariants,
    VertexCycle,
    automorphisms,
    canonicalize,
    least_code,
    parse,
    serialize,
    surface_invariants,
    verify_extremal,
    vertex_cycles,
)
from .covers import (
    VoltageAssignment,
    cyclic_cover,
    find_nonorientable_cyclic_cover,
    orientation_double_cover,
    realize_spec,
)
from .feasibility import (
    ARITHMETIC_CELL_SIZES,
    ExtremalParams,
    Uniqueness,
    count_feasible_k,
    dual_extremal_pairs,
    feasible_genus_progression,
    is_feasible,
    is_primitive,
    line_ln,
    packing_radius_bound,
    primitive_pair,
    uniqueness_class,
    universal_k,
)
from .geometry import (
    DiskLayout,
    Isometry,
    NgonGeometry,
    boroczky_equality_check,
    equilateral_angle,
    holonomy_check,
    realize,
    regular_ngon,
    render_svg,
    rotation_pi_about,
)
from .grafting import (
    GraftSite,
    GraftVariant,
    apply_graft,
    build_primitive,
    discover_rewrite,
    eligible_sites,
)
from .trigroup import (
    CosetTable,
    Presentation,
    SubgroupRecord,
    canonical_fuchsian,
    classify,
    complex_to_subgroup,
    low_index_subgroups,
    subgroup_to_complex,
    triangle_presentation,
)

__version__ = "0.1.0"
