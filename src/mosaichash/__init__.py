"""Universal hash families, mosaics of designs, and exact privacy amplification."""

from . import errors
from .construct import (
    balanced_epsilon,
    concatenate,
    concatenation_bound,
    double_extension,
    double_extension_parts,
    krawczyk_lift,
    point_extension,
    seed_extension,
)
from .designs import (
    IncidenceStructure,
    Mosaic,
    NotResolvable,
    Resolution,
    analyze_structure,
    check_structure_theorems,
    dual_mosaic,
    find_resolution,
    function_from_mosaic,
    is_isomorphic,
    mosaic_from_function,
    mosaic_from_resolution,
    sum_mosaic,
)
from .families import (
    FunctionTable,
    Group,
    HashFamily,
    Quasigroup,
    affine,
    build_named,
    cyclic_group,
    dual_affine,
    field_multiply,
    toeplitz,
    transversal,
    transversal_dual_affine_relabeling,
)
from .fields import Field, field_arith, field_for_order, field_new, truncate
from .privacy import (
    JointSource,
    iid_extend,
    pa_joint,
    renyi2_conditional,
    run_pa,
    security_distance,
    theorem_bound,
    theorem_radicand,
    uniform_source,
)
from .verify import (
    classify,
    min_epsilon,
    optimal_epsilon,
    regularity_check,
    seed_lower_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
