import ast
import json
import pathlib
import sys
import types

import mosaichash
from mosaichash import privacy
from util import run_python

# The public names of the package, one a line, so that adding or removing one
# is a one-line change to review here.
PUBLIC = """
Field
FunctionTable
Group
HashFamily
IncidenceStructure
JointSource
Mosaic
NotResolvable
Quasigroup
Resolution
affine
analyze_structure
balanced_epsilon
build_named
check_structure_theorems
classify
concatenate
concatenation_bound
construct
cyclic_group
designs
double_extension
double_extension_parts
dual_affine
dual_mosaic
errors
families
field_arith
field_for_order
field_multiply
field_new
fields
find_resolution
function_from_mosaic
iid_extend
is_isomorphic
krawczyk_lift
min_epsilon
mosaic_from_function
mosaic_from_resolution
optimal_epsilon
pa_joint
point_extension
privacy
regularity_check
renyi2_conditional
run_pa
security_distance
seed_extension
seed_lower_bounds
sum_mosaic
theorem_bound
theorem_radicand
toeplitz
transversal
transversal_dual_affine_relabeling
truncate
uniform_source
verify
""".split()


def test_public_names_are_the_reviewed_list():
    assert sorted(mosaichash.__all__) == PUBLIC


# Read in a fresh interpreter: here the tests have long since read the namespace.
FRESH = """
import json, sys
import mosaichash

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "mosaichash")

print(json.dumps({"import": loaded(), "dir": sorted(set(mosaichash.__all__) - set(dir(mosaichash))),
                  "nope": hasattr(mosaichash, "nope"), "after_nope": loaded()}))
"""


def test_import_loads_no_submodule_and_a_miss_loads_none():
    res = run_python("-c", FRESH)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {"import": ["mosaichash"], "dir": [], "nope": False,
                                      "after_nope": ["mosaichash"]}


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from mosaichash import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == PUBLIC


def test_every_public_name_is_its_submodules_object():
    for name in PUBLIC:
        obj = getattr(mosaichash, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"mosaichash.{name}"]
        else:
            assert obj.__module__.startswith("mosaichash.")
            assert getattr(sys.modules[obj.__module__], name) is obj


def imports(path):
    """(module, name) of every import in the file at path, each module by its last
    dotted part; name is None where a whole module is imported."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((a.name.split(".")[-1], None) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import m
            yield from ((a.name, None) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module.split(".")[-1], a.name) for a in node.names)


def test_counting_kernels_live_in_count_alone():
    """verify lends only _render and _json under private names, and _count, which
    every analysis counts with, depends on none of the analyses."""
    paths = sorted(pathlib.Path(mosaichash.__file__).parent.glob("*.py"))
    for path in paths:
        for module, name in imports(path):
            if module == "verify" and name is not None and name.startswith("_"):
                assert name in ("_render", "_json"), (path.name, name)
            if path.name == "_count.py":
                assert module not in ("verify", "designs", "construct", "privacy", "cli"), module
    assert "_count.py" in [p.name for p in paths]


def test_designs_reads_counts_records_not_the_pair_pass():
    """_count alone makes counts records and reads the pass and its orbit
    labels; designs takes finished records from it."""
    path = pathlib.Path(mosaichash.__file__).parent / "designs.py"
    names = {name for module, name in imports(path) if module == "_count"}
    assert names == {"gram_counts", "held_counts", "incidence", "member_counts", "sum_counts",
                     "present"}


def test_one_module_holds_every_counting_kernel():
    """privacy builds no one-hot, scatter or product of its own, and no module
    but _count reads the pair blocks, their maxima or the one-hot operands."""
    root = pathlib.Path(mosaichash.__file__).parent
    for path in root.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        used = {name for module, name in imports(path) if module == "_count"} | {
            n.attr for n in nodes if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "_count"}
        if path.name != "_count.py":
            assert not used & {"pair_blocks", "pair_counts", "pair_max", "one_hot"}, path.name
        if path.name == "privacy.py":
            assert not {n.attr for n in nodes if isinstance(n, ast.Attribute)} & {
                "at", "put_along_axis", "dot", "matmul", "tensordot"}
            assert not any(isinstance(n, ast.MatMult) for n in nodes)
    assert not hasattr(privacy, "_BLOCK") and not hasattr(privacy, "_product_pays")


def test_every_file_parses_as_python_3_10():
    """CI tests Python 3.10 as well: no file may need a newer grammar."""
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [p for d in ("src", "tests", "demos") for p in sorted((root / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
