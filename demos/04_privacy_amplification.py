"""
Privacy amplification
=====================

Hash a partially secret string X with a public uniform seed into a key
that looks uniform and independent to an adversary holding the side
information Z and the seed.  All probabilities are exact rationals, so
the security bound can be checked with zero tolerance.
"""

from fractions import Fraction

from mosaichash import (
    FunctionTable,
    JointSource,
    affine,
    iid_extend,
    renyi2_conditional,
    run_pa,
    uniform_source,
)

# with a uniform, independent source the extracted key is perfect:
# the distance and the bound both collapse to exactly zero
f = affine(2, 3)
res = run_pa(uniform_source(f.x_labels), f)
print(f"uniform source + {f.name}: distance = {res.security_distance}, "
      f"bound radicand = {res.radicand}")
print()

# a correlated source: Z is X sent through a binary symmetric channel
p = Fraction(1, 4)
base = JointSource(
    [0, 1], [0, 1],
    [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]],
)
h2, inner = renyi2_conditional(base)
print(f"flip-{p} source: H2(X|Z) = {h2:.4f} bits per letter")


def relabel(fam, labels):
    # rename the point set positionally so it matches the product source
    T = fam.to_table()
    return FunctionTable(labels, T.s_labels, T.a_labels, T.array).to_family(fam.name)


# extract one bit from n observations; the exact security distance and
# the theorem bound both decay as n grows
print("n  distance (exact)   2*sqrt(radicand)")
for n in range(1, 9):
    src = iid_extend(base, n)
    fam = relabel(affine(2, n), src.x_labels)
    res = run_pa(src, fam)
    print(f"{n}  {str(res.security_distance):16}  {res.theorem_bound:.6f}")
