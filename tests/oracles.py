"""Independent naive-loop oracles.

These deliberately avoid the library's counting code paths: everything
is computed with plain Python loops directly over ``evaluate``.
"""

from fractions import Fraction
from itertools import permutations


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


def oracle_p_zsa(src, f):
    """Joint p_ZSA as {(z, s, a): mass} over the nonzero cells, by direct summation."""
    p_zsa = {}
    for xi, x in enumerate(src.x_labels):
        for zi, z in enumerate(src.z_labels):
            for s in f.s_labels:
                key = (z, s, f.evaluate(x, s))
                p_zsa[key] = p_zsa.get(key, Fraction(0)) + src.p[xi][zi] / len(f.s_labels)
    return p_zsa


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


# ---------------------------------------------------------------------------
# Reference fields and named families, by hand.  Nothing here reads
# mosaichash.fields or the family builders: element index i stands for the
# coefficient tuple (c0, ..., c_{m-1}) of c0 + c1 x + ..., the base-p digits
# of i with c0 the most significant, and every product is a schoolbook product.
# ---------------------------------------------------------------------------

#: q -> (p, m, modulus low degree first) of the reference fields: every prime
#: power q <= 64, the prime 67, GF(128) and GF(256).  Each modulus is stated by
#: hand; it is the canonical one the library finds, the monic irreducible
#: x^m + r_{m-1} x^{m-1} + ... + r_0 with the least sum of r_i p^i.
REF_FIELDS = {
    **{q: (q, 1, None) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                                 59, 61, 67)},
    4: (2, 2, (1, 1, 1)),  # x^2 + x + 1
    8: (2, 3, (1, 1, 0, 1)),  # x^3 + x + 1, the modulus of gf8_mul_table
    16: (2, 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1
    32: (2, 5, (1, 0, 1, 0, 0, 1)),  # x^5 + x^2 + 1
    64: (2, 6, (1, 1, 0, 0, 0, 0, 1)),  # x^6 + x + 1
    128: (2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),  # x^7 + x + 1
    256: (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # x^8 + x^4 + x^3 + x + 1: x has order 51
    9: (3, 2, (1, 0, 1)),  # x^2 + 1
    27: (3, 3, (1, 2, 0, 1)),  # x^3 + 2x + 1
    25: (5, 2, (2, 0, 1)),  # x^2 + 2
    49: (7, 2, (1, 0, 1)),  # x^2 + 1
}


class RefField:
    """GF(q) on coefficient tuples: digit-wise sums, and schoolbook products
    reduced by the stated modulus r through x^m = -(r_0 + ... + r_{m-1} x^{m-1})."""

    def __init__(self, q):
        self.p, self.m, self.modulus = REF_FIELDS[q]
        self.q = q
        self.elems = [()]
        for _ in range(self.m):
            self.elems = [e + (c,) for e in self.elems for c in range(self.p)]
        self.idx = {e: i for i, e in enumerate(self.elems)}
        self.one = self.idx[(1,) + (0,) * (self.m - 1)]

    def add(self, a, b):
        ca, cb = self.elems[a], self.elems[b]
        return self.idx[tuple((x + y) % self.p for x, y in zip(ca, cb))]

    def neg(self, a):
        return self.idx[tuple(-x % self.p for x in self.elems[a])]

    _products = {}  # (q, a, b) -> a * b for every instance, so each product is summed once

    def mul(self, a, b):
        if (self.q, a, b) not in self._products:
            self._products[self.q, a, b] = self._schoolbook(a, b)
        return self._products[self.q, a, b]

    def _schoolbook(self, a, b):
        m = self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(self.elems[a]):
            for j, y in enumerate(self.elems[b]):
                prod[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):  # x^k = x^(k-m) x^m, from the top down
            for i in range(m):
                prod[k - m + i] -= prod[k] * self.modulus[i]
        return self.idx[tuple(c % self.p for c in prod[:m])]

    def inv(self, a):
        """The b with a * b = 1, by search; StopIteration if there is none."""
        return next(b for b in range(1, self.q) if self.mul(a, b) == self.one)

    def dot(self, u, v):
        acc = 0
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc


def _ref_vectors(q, t):
    vecs = [()]
    for _ in range(t):
        vecs = [v + (c,) for v in vecs for c in range(q)]
    return vecs


def _ref_family(X, S, A, value):
    """(labels, rows of values) of a family, for comparison with to_table."""
    return (X, S, A), [[value(x, s) for s in S] for x in X]


def ref_affine(q, t):
    F = RefField(q)
    H = [h for h in _ref_vectors(q, t) if any(h) and next(c for c in h if c) == F.one]
    S = [(h, b) for h in H for b in range(q)]
    return _ref_family(_ref_vectors(q, t), S, list(range(q)),
                       lambda x, s: F.add(F.dot(s[0], x), s[1]))


def ref_dual_affine(q, t):
    (X, S, A), rows = ref_affine(q, t)
    return (S, X, A), [list(col) for col in zip(*rows)]


def ref_transversal(q, h_subset=None, include_infinity=False):
    F = RefField(q)
    H = list(range(q)) if h_subset is None else list(h_subset)
    X = [(h, y) for h in H for y in range(q)]
    X += [("inf", y) for y in range(q)] if include_infinity else []

    def value(x, s):
        (h, y), (s1, s2) = x, s
        if h == "inf":
            return F.add(s1, y)
        return F.add(F.add(s2, F.neg(F.mul(h, s1))), y)

    return _ref_family(X, [(a, b) for a in range(q) for b in range(q)], list(range(q)), value)


def ref_toeplitz(q, m, n):
    F = RefField(q)

    def value(x, h):
        return tuple(F.dot([h[i - j + n - 1] for j in range(n)], x) for i in range(m))

    return _ref_family(_ref_vectors(q, n), _ref_vectors(q, m + n - 1), _ref_vectors(q, m), value)


def ref_field_multiply(q, n, m, exclude_zero=False):
    big = RefField(q**n)
    S = list(range(1 if exclude_zero else 0, big.q))
    return _ref_family(list(range(big.q)), S, _ref_vectors(q, m),
                       lambda x, h: big.elems[big.mul(h, x)][:m])


# The constructions as the paper writes them, on labels: only the parts'
# ``evaluate``, ``Quasigroup.mul`` and ``Group.add``, never an index formula.


def ref_seed_extension(g, q):
    """f(x; h, b) = g(x, h) o b."""
    S = [(h, b) for h in g.s_labels for b in q.labels]
    return _ref_family(list(g.x_labels), S, list(g.a_labels),
                       lambda x, s: q.mul(g.evaluate(x, s[0]), s[1]))


def ref_point_extension(g, q):
    """f(y, b; s) = g(y, s) o b."""
    X = [(y, b) for y in g.x_labels for b in q.labels]
    return _ref_family(X, list(g.s_labels), list(g.a_labels),
                       lambda x, s: q.mul(g.evaluate(x[0], s), x[1]))


def ref_concatenate(f1, f2):
    """f(x; s1, s2) = f2(f1(x, s1), s2)."""
    S = [(s1, s2) for s1 in f1.s_labels for s2 in f2.s_labels]
    return _ref_family(list(f1.x_labels), S, list(f2.a_labels),
                       lambda x, s: f2.evaluate(f1.evaluate(x, s[0]), s[1]))


def ref_double_extension(a):
    """f(y, b; h, c) = a(y, h) + b + c in the value group."""
    grp = a.a_group
    X = [(y, b) for y in a.x_labels for b in grp.labels]
    S = [(h, c) for h in a.s_labels for c in grp.labels]
    return _ref_family(X, S, list(grp.labels),
                       lambda x, s: grp.add(grp.add(a.evaluate(x[0], s[0]), x[1]), s[1]))


def ref_double_extension_parts(a):
    """g1(y, b; h) = a(y, h) + b and g2(y; h, c) = a(y, h) + c."""
    grp = a.a_group
    g1 = _ref_family([(y, b) for y in a.x_labels for b in grp.labels], list(a.s_labels),
                     list(grp.labels), lambda x, h: grp.add(a.evaluate(x[0], h), x[1]))
    g2 = _ref_family(list(a.x_labels), [(h, c) for h in a.s_labels for c in grp.labels],
                     list(grp.labels), lambda y, s: grp.add(a.evaluate(y, s[0]), s[1]))
    return g1, g2


def ref_transpose(f):
    """f^T(s; x) = f(x, s)."""
    return _ref_family(list(f.s_labels), list(f.x_labels), list(f.a_labels),
                       lambda s, x: f.evaluate(x, s))


def oracle_is_isomorphic(a_rows, b_rows):
    """Brute-force isomorphism of two 0/1 matrices given as lists of rows:
    try every row permutation; for each, some column permutation matches
    exactly when the two column multisets are equal."""
    if len(a_rows) != len(b_rows) or [len(r) for r in a_rows] != [len(r) for r in b_rows]:
        return False
    b_cols = sorted(zip(*b_rows))
    return any(sorted(zip(*[a_rows[i] for i in perm])) == b_cols
               for perm in permutations(range(len(a_rows))))


def oracle_find_resolution(rows):
    """The first recursive resolution search, without its budget: its classes
    (None when there is no resolution) and the nodes it used.  It raises
    RecursionError on large structures."""
    v, b = len(rows), len(rows[0])
    r = sum(rows[0])
    if any(sum(row) != r for row in rows) or r == 0 or b % r:
        return None, 0
    class_size = b // r
    full = (1 << v) - 1
    masks = [sum(1 << i for i in range(v) if rows[i][j]) for j in range(b)]
    nodes = 0
    used = [False] * b
    classes = []

    def build_class(start, members, cover):
        nonlocal nodes
        nodes += 1
        if len(members) == class_size:
            if cover != full:
                return False
            classes.append(tuple(members))
            if solve():
                return True
            classes.pop()
            return False
        for j in range(start, b):
            if used[j] or (cover & masks[j]):
                continue
            used[j] = True
            members.append(j)
            if build_class(j + 1, members, cover | masks[j]):
                return True
            members.pop()
            used[j] = False
        return False

    def solve():
        try:
            first = used.index(False)
        except ValueError:
            return True
        used[first] = True
        ok = build_class(first + 1, [first], masks[first])
        if not ok:
            used[first] = False
        return ok

    return (tuple(classes) if solve() else None), nodes


def oracle_design_params(rows):
    """DesignParams.to_dict() of a 0/1 matrix, by plain integer loops."""
    v, b = len(rows), len(rows[0]) if rows else 0
    k_set = {sum(rows[i][j] for i in range(v)) for j in range(b)}
    r_set = {sum(row) for row in rows}
    lam_set = {sum(rows[x][j] * rows[y][j] for j in range(b))
               for x in range(v) for y in range(v) if x != y}
    numbers = sorted({sum(rows[i][s] * rows[i][t] for i in range(v))
                      for s in range(b) for t in range(b) if s != t})
    k = k_set.pop() if len(k_set) == 1 else None
    r = r_set.pop() if len(r_set) == 1 else None
    lam = lam_set.pop() if len(lam_set) == 1 else None
    is_bibd = k is not None and lam is not None and lam >= 1 and k >= 1
    relations_ok = (k is None or r is None or b * k == v * r) and not (
        is_bibd and r is not None and lam * (v - 1) != r * (k - 1))
    return {
        "v": v, "b": b, "k": k, "r": r, "lambda": lam, "is_bibd": is_bibd,
        "intersection_numbers": numbers,
        "symmetric": is_bibd and len(numbers) == 1,
        "quasi_symmetric": is_bibd and len(numbers) == 2,
        "relations_ok": relations_ok,
        "affine_block_count": r is not None and b == v + r - 1,
    }
