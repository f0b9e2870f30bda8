"""
Constructions
=============

Three ways to build collision-flat hash functions from simpler ones:
extend the seed set of an almost-universal function, extend the point
set of a strongly universal one, or concatenate two stages.
"""

from mosaichash import (
    FunctionTable,
    classify,
    concatenate,
    concatenation_bound,
    cyclic_group,
    field_multiply,
    krawczyk_lift,
    min_epsilon,
    point_extension,
    seed_extension,
    toeplitz,
)


# finite-field multiplication, truncated to one coordinate, is an
# optimal almost-universal function: eps_au = 3/7 on 8 points
g = field_multiply(2, 3, 1, exclude_zero=True)
print(f"{g.name}: eps_au = {min_epsilon(g, 'AU')[0]}")

# composing with a latin square on the value set doubles the seed set
# and turns the AU guarantee into a collision-flat one, exactly
f = seed_extension(g, cyclic_group(g.a_labels))
rep = classify(f)
print(f"{f.name}: |S| = {f.s_size}, eps_acfu = {rep.eps_acfu}, "
      f"eps_asu = {rep.eps_asu}, OCFU = {rep.ocfu}")
print()

# the dual move extends the point set instead and transfers eps_asu
fp = point_extension(f, cyclic_group(f.a_labels))
print(f"{fp.name}: |X| = {fp.x_size}, "
      f"eps_acfu = {min_epsilon(fp, 'ACFU')[0]} (= eps_asu above)")
print()

# Toeplitz hashing is not collision-flat on its own (the zero seed is
# degenerate), but it is 1/2-balanced and linear, so adding a uniform
# offset lifts it to a strongly universal family
t = toeplitz(2, 1, 2)
lifted, eps = krawczyk_lift(t)
print(f"{lifted.name}: {eps}-balanced input, "
      f"eps_asu = {min_epsilon(lifted, 'ASU')[0]}")
print()

# concatenation: a strongly universal first stage followed by a
# collision-flat second stage stays collision-flat within the bound
f1 = lifted
f2 = FunctionTable(f1.a_labels, [0, 1], [0, 1], [[0, 1], [1, 0]]).to_family("xor")
comp = concatenate(f1, f2)
eps1 = min_epsilon(f1, "ASU")[0]
eps2 = min_epsilon(f2, "ACFU")[0]
print(f"{comp.name}: measured eps_acfu = {min_epsilon(comp, 'ACFU')[0]}, "
      f"bound = {concatenation_bound(eps1, eps2, f1.a_size)}")
