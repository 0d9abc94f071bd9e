"""Extremal disc packings on compact non-orientable hyperbolic surfaces.

The packing arithmetic lives in `feasibility`; combinatorial surfaces as
edge-identified polygons in `complexes`, whose least-code pass, canonical
form and file format are the private `_canon` and whose vertex-cycle
readers are the private `_vertices`; the genus-raising edge-grafting
rewrites in `grafting`, whose wiring table and size policy are the
private `_rewrite`; orientation double covers and cyclic covers in
`covers`, lifted by the private `_action`; subgroups of the extended (p, q, r) triangle groups, held as
the coset actions of the three reflections, their low-index search and
the subgroup/complex bridge in `trigroup`, whose search kernel is the
private `_lowindex`, with the block search's helpers in `_blocks`; the
exact unit-disk layouts in `geometry`, whose reflection group is the
private `_reflection`; the shipped certified examples in `catalog`; and
the command line in `cli`, whose commands and their handlers are the
private `_commands`.

The names below resolve lazily (PEP 562): ``import extpack`` loads no
submodule, and ``extpack.X`` or ``from extpack import X`` imports only
the module that defines X.  So a command pays only for what it runs.
"""

import importlib

#: module -> the public names it contributes to the package
_EXPORTS = {
    "complexes": (
        "ExtremalityReport",
        "PolygonComplex",
        "SurfaceInvariants",
        "VertexCycle",
        "automorphisms",
        "canonicalize",
        "least_code",
        "parse",
        "serialize",
        "surface_invariants",
        "verify_extremal",
        "vertex_cycles",
    ),
    "covers": (
        "VoltageAssignment",
        "cyclic_cover",
        "find_nonorientable_cyclic_cover",
        "orientation_double_cover",
        "realize_spec",
    ),
    "feasibility": (
        "ARITHMETIC_CELL_SIZES",
        "ExtremalParams",
        "Uniqueness",
        "count_feasible_k",
        "dual_extremal_pairs",
        "feasible_genus_progression",
        "is_feasible",
        "is_primitive",
        "line_ln",
        "packing_radius_bound",
        "primitive_pair",
        "uniqueness_class",
        "universal_k",
    ),
    "geometry": (
        "DiskLayout",
        "NgonGeometry",
        "boroczky_equality_check",
        "equilateral_angle",
        "holonomy_check",
        "realize",
        "regular_ngon",
        "render_svg",
    ),
    "grafting": (
        "GraftSite",
        "GraftVariant",
        "apply_graft",
        "build_primitive",
        "discover_rewrite",
        "eligible_sites",
    ),
    "trigroup": (
        "SubgroupRecord",
        "canonical_fuchsian",
        "classify",
        "complex_to_subgroup",
        "low_index_subgroups",
        "subgroup_to_complex",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

#: submodules that ``extpack.<module>`` reaches without importing them first
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
