"""Universal hash families, mosaics of designs, and exact privacy amplification.

``import mosaichash`` loads no submodule.  The first read of a public name
imports every submodule and binds all public names here, so every later read
is a plain global lookup and each name is its submodule's object.
"""

from importlib import import_module as _import_module

# Each submodule with the public names the package binds from it.
_PUBLIC = {
    "errors": (),
    "fields": ("Field", "field_arith", "field_for_order", "field_new", "truncate"),
    "families": ("FunctionTable", "Group", "HashFamily", "Quasigroup", "affine", "build_named",
                 "cyclic_group", "dual_affine", "field_multiply", "toeplitz", "transversal",
                 "transversal_dual_affine_relabeling"),
    "verify": ("classify", "min_epsilon", "optimal_epsilon", "regularity_check",
               "seed_lower_bounds"),
    "designs": ("IncidenceStructure", "Mosaic", "NotResolvable", "Resolution",
                "analyze_structure", "check_structure_theorems", "dual_mosaic", "find_resolution",
                "function_from_mosaic", "is_isomorphic", "mosaic_from_function",
                "mosaic_from_resolution", "sum_mosaic"),
    "construct": ("balanced_epsilon", "concatenate", "concatenation_bound", "double_extension",
                  "double_extension_parts", "krawczyk_lift", "point_extension", "seed_extension"),
    "privacy": ("JointSource", "iid_extend", "pa_joint", "renyi2_conditional", "run_pa",
                "security_distance", "theorem_bound", "theorem_radicand", "uniform_source"),
}

__all__ = sorted([*_PUBLIC, *(name for names in _PUBLIC.values() for name in names)])


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for sub, names in _PUBLIC.items():
        mod = _import_module(f"{__name__}.{sub}")
        globals().update({n: getattr(mod, n) for n in names})
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
