import mosaichash

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
