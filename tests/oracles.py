"""Independent naive-loop oracles.

These deliberately avoid the library's counting code paths: everything
is computed with plain Python loops directly over ``evaluate``.
"""

from fractions import Fraction


def oracle_regular(f):
    block = None
    for x in f.x_labels:
        for a in f.a_labels:
            c = sum(1 for s in f.s_labels if f.evaluate(x, s) == a)
            if block is None:
                block = c
            elif c != block:
                return False
    return True


def oracle_eps_au(f):
    best = 0
    for x in f.x_labels:
        for y in f.x_labels:
            if x == y:
                continue
            c = sum(1 for s in f.s_labels if f.evaluate(x, s) == f.evaluate(y, s))
            best = max(best, c)
    return Fraction(best, len(f.s_labels))


def oracle_eps_acfu(f):
    best = 0
    for x in f.x_labels:
        for y in f.x_labels:
            if x == y:
                continue
            for a in f.a_labels:
                c = sum(
                    1
                    for s in f.s_labels
                    if f.evaluate(x, s) == a and f.evaluate(y, s) == a
                )
                best = max(best, c)
    return Fraction(best * len(f.a_labels), len(f.s_labels))


def oracle_eps_asu(f):
    best = 0
    for x in f.x_labels:
        for y in f.x_labels:
            if x == y:
                continue
            for a in f.a_labels:
                for a2 in f.a_labels:
                    c = sum(
                        1
                        for s in f.s_labels
                        if f.evaluate(x, s) == a and f.evaluate(y, s) == a2
                    )
                    best = max(best, c)
    return Fraction(best * len(f.a_labels), len(f.s_labels))


def _oracle_homomorphic(f):
    g, ga = f.x_group, f.a_group
    if g is None or ga is None:
        return False
    return all(
        ga.add(f.evaluate(x, s), f.evaluate(y, s)) == f.evaluate(g.add(x, y), s)
        for x in f.x_labels
        for y in f.x_labels
        for s in f.s_labels
    )


def _first_max(candidates, norm):
    """(best / norm, witness) of the first strict maximum; (0, None) if empty."""
    best, witness = -1, None
    for w, c in candidates:
        if c > best:
            best, witness = c, w
    if best < 0:
        return Fraction(0), None
    return Fraction(best, norm), witness


def oracle_witness(f, hash_class):
    """(epsilon, witness) of ``hash_class``, scanning x < x', then a, then
    a' in label order; None where the class does not apply (ACFU and ASU
    of an irregular family, BALANCED of a family not linear in x)."""
    X, S, A = f.x_labels, f.s_labels, f.a_labels
    ev = f.evaluate
    if hash_class == "BALANCED":
        if not _oracle_homomorphic(f):
            return None
        cands = (
            ((x, a), sum(1 for s in S if ev(x, s) == a))
            for x in X
            if x != f.x_group.zero
            for a in A
        )
        return _first_max(cands, len(S))
    if hash_class != "AU" and not oracle_regular(f):
        return None
    pairs = [(x, y) for i, x in enumerate(X) for y in X[i + 1:]]
    if hash_class == "AU":
        cands = (
            ((x, y), sum(1 for s in S if ev(x, s) == ev(y, s))) for x, y in pairs
        )
        return _first_max(cands, len(S))
    if hash_class == "ACFU":
        cands = (
            ((x, y, a), sum(1 for s in S if ev(x, s) == a == ev(y, s)))
            for x, y in pairs
            for a in A
        )
    else:
        cands = (
            ((x, y, a, b), sum(1 for s in S if ev(x, s) == a and ev(y, s) == b))
            for x, y in pairs
            for a in A
            for b in A
        )
    return _first_max(cands, len(S) // len(A))


def oracle_balanced_epsilon(f):
    """(eps, witness) of construct.balanced_epsilon for a family with two or
    more points: the first strict maximum of #{s : f(y,s) - f(y',s) = b}
    over y < y', then b, in label order."""
    X, S = f.x_labels, f.s_labels
    sub = f.a_group.sub
    cands = (
        ((y, y2, b), sum(1 for s in S if sub(f.evaluate(y, s), f.evaluate(y2, s)) == b))
        for i, y in enumerate(X)
        for y2 in X[i + 1:]
        for b in f.a_labels
    )
    return _first_max(cands, len(S))


def oracle_security_distance(src, f):
    """Max l1 distance between conditionals p_{ZS|A=a}, by direct summation."""
    ns = len(f.s_labels)
    p_zsa = {}
    for xi, x in enumerate(src.x_labels):
        for zi, z in enumerate(src.z_labels):
            for s in f.s_labels:
                a = f.evaluate(x, s)
                key = (z, s, a)
                p_zsa[key] = p_zsa.get(key, Fraction(0)) + src.p[xi][zi] / ns
    p_a = {}
    for (z, s, a), v in p_zsa.items():
        p_a[a] = p_a.get(a, Fraction(0)) + v
    best = Fraction(0)
    for a in f.a_labels:
        for a2 in f.a_labels:
            if a == a2:
                continue
            d = Fraction(0)
            for z in src.z_labels:
                for s in f.s_labels:
                    va = p_zsa.get((z, s, a), Fraction(0)) / p_a[a]
                    vb = p_zsa.get((z, s, a2), Fraction(0)) / p_a[a2]
                    d += abs(va - vb)
            best = max(best, d)
    return best


def oracle_renyi_inner(src):
    inner = Fraction(0)
    for zi in range(src.z_size):
        col = [src.p[xi][zi] for xi in range(src.x_size)]
        inner += sum(v * v for v in col) / sum(col)
    return inner


def gf8_mul_table():
    """Full 8x8 multiplication table for GF(8) mod x^3 + x + 1, by hand rules.

    Elements are coefficient triples (c0, c1, c2) for c0 + c1 x + c2 x^2.
    """

    def mul(a, b):
        # schoolbook product, then reduce x^3 -> x + 1, x^4 -> x^2 + x
        prod = [0] * 5
        for i in range(3):
            for j in range(3):
                prod[i + j] ^= a[i] & b[j]
        # degree 4
        prod[1] ^= prod[4]
        prod[2] ^= prod[4]
        # degree 3
        prod[0] ^= prod[3]
        prod[1] ^= prod[3]
        return (prod[0], prod[1], prod[2])

    elems = [(c0, c1, c2) for c0 in (0, 1) for c1 in (0, 1) for c2 in (0, 1)]
    return {(a, b): mul(a, b) for a in elems for b in elems}
