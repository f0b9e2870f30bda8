"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports ``mosaichash``.  Finite fields, the named families,
the constructions, the epsilon counts, the design parameters and the
privacy-amplification distance are recomputed from integer tables with
numpy and ``Fraction`` code written for this file.  Labels and their
order follow the library's documented conventions, so a reference table
can be compared entry by entry with a library table and a reference
witness with a library witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

INF = "inf"


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------


def _prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m, n = 0, q
    while n > 1:
        if n % p:
            raise ValueError(f"{q} is not a prime power")
        n //= p
        m += 1
    return p, m


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _least_irreducible(p, m):
    """Least monic irreducible of degree m, coefficients low degree first.

    Candidates are ordered by the integer sum c_i p^i; reducible ones are
    found by sieving all products of two monic factors.
    """
    def monic(d):
        return [list(c) + [1] for c in itertools.product(range(p), repeat=d)]

    reducible = set()
    for d in range(1, m // 2 + 1):
        for f in monic(d):
            for g in monic(m - d):
                reducible.add(tuple(_polymul(f, g, p)))
    for code in range(p**m):
        poly = tuple([code // p**i % p for i in range(m)] + [1])
        if poly not in reducible:
            return poly
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


class RefField:
    """GF(q) on indices 0..q-1; index a has c_i = a // p^(m-1-i) % p."""

    def __init__(self, q):
        p, m = _prime_power(q)
        self.p, self.m, self.q = p, m, q
        weights = p ** (m - 1 - np.arange(m))
        vec = (np.arange(q)[:, None] // weights[None, :]) % p
        self.add = ((vec[:, None, :] + vec[None, :, :]) % p) @ weights
        self.neg = ((-vec) % p) @ weights
        self.zero, self.one = 0, int(p ** (m - 1))
        mod = _least_irreducible(p, m) if m > 1 else None
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                prod = _polymul(list(vec[a]), list(vec[b]), p)
                for top in range(len(prod) - 1, m - 1, -1):
                    c = prod[top]
                    if c:
                        for i in range(m + 1):
                            prod[top - m + i] = (prod[top - m + i] - c * mod[i]) % p
                mul[a, b] = sum(int(prod[i]) * int(weights[i]) for i in range(m))
        self.mul = mul
        self.vec = vec
        self.sub = self.add[:, self.neg]


def _vectors(q, t):
    return np.array(list(itertools.product(range(q), repeat=t)), dtype=np.int64).reshape(-1, t)


def _encode(vecs, q):
    t = vecs.shape[-1]
    return vecs @ (q ** (t - 1 - np.arange(t)))


def _labels(vecs):
    return [tuple(int(c) for c in v) for v in vecs]


def _vector_add(field, t):
    v = _vectors(field.q, t)
    return _encode(field.add[v[:, None, :], v[None, :, :]], field.q)


# ---------------------------------------------------------------------------
# families as integer tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefFamily:
    x_labels: tuple
    s_labels: tuple
    a_labels: tuple
    T: np.ndarray  # T[x, s] = index into a_labels
    x_add: np.ndarray | None = None  # group tables on indices
    a_add: np.ndarray | None = None

    @property
    def shape(self):
        return len(self.x_labels), len(self.s_labels), len(self.a_labels)

    def without_groups(self):
        """The same table as a JSON round trip sees it: no group structure."""
        return replace(self, x_add=None, a_add=None)


def affine(q, t):
    F = RefField(q)
    X = _vectors(q, t)
    H = np.array([v for v in X if v.any() and v[np.flatnonzero(v)[0]] == F.one])
    dot = np.zeros((len(X), len(H)), dtype=np.int64)
    for k in range(t):
        dot = F.add[dot, F.mul[X[:, k][:, None], H[:, k][None, :]]]
    T = F.add[dot[:, :, None], np.arange(q)[None, None, :]].reshape(len(X), -1)
    s_labels = [(h, b) for h in _labels(H) for b in range(q)]
    return RefFamily(tuple(_labels(X)), tuple(s_labels), tuple(range(q)), T,
                     _vector_add(F, t), F.add)


def dual_affine(q, t):
    a = affine(q, t)
    return RefFamily(a.s_labels, a.x_labels, a.a_labels, a.T.T.copy(), None, a.a_add)


def transversal(q, include_infinity=True):
    F = RefField(q)
    h, y = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    h, y = h.ravel(), y.ravel()
    s1, s2 = (g.ravel() for g in np.meshgrid(np.arange(q), np.arange(q), indexing="ij"))
    T = F.add[F.sub[s2[None, :], F.mul[h[:, None], s1[None, :]]], y[:, None]]
    x_labels = [(int(a), int(b)) for a, b in zip(h, y)]
    if include_infinity:
        T = np.vstack([T, F.add[s1[None, :], np.arange(q)[:, None]]])
        x_labels += [(INF, b) for b in range(q)]
    s_labels = [(int(a), int(b)) for a, b in zip(s1, s2)]
    return RefFamily(tuple(x_labels), tuple(s_labels), tuple(range(q)), T, None, F.add)


def toeplitz(q, m, n):
    F = RefField(q)
    X, S = _vectors(q, n), _vectors(q, m + n - 1)
    out = np.zeros((len(X), len(S), m), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            out[:, :, i] = F.add[out[:, :, i], F.mul[S[:, i - j + n - 1][None, :], X[:, j][:, None]]]
    return RefFamily(tuple(_labels(X)), tuple(_labels(S)), tuple(_labels(_vectors(q, m))),
                     _encode(out, q), _vector_add(F, n), _vector_add(F, m))


def field_multiply(q, n, m):
    big, base = RefField(q**n), RefField(q)
    trunc = big.vec[big.mul][:, :, :m]  # first m coefficients of h*x, as [h, x, i]
    T = _encode(trunc, q).T.copy()  # T[x, h]
    return RefFamily(tuple(range(big.q)), tuple(range(big.q)),
                     tuple(_labels(_vectors(q, m))), T, big.add, _vector_add(base, m))


def from_rows(x_labels, s_labels, a_labels, rows):
    return RefFamily(tuple(x_labels), tuple(s_labels), tuple(a_labels),
                     np.array(rows, dtype=np.int64).reshape(len(x_labels), len(s_labels)))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _quasigroup_on(f: RefFamily, labels, rows):
    """Quasigroup table on f's value indices: Q[u, j] = index of u o labels[j]."""
    a_index = {a: i for i, a in enumerate(f.a_labels)}
    pos = {a: i for i, a in enumerate(labels)}
    Q = np.empty((len(f.a_labels), len(labels)), dtype=np.int64)
    for u, a in enumerate(f.a_labels):
        for j, b in enumerate(labels):
            Q[u, j] = a_index[rows[pos[a]][j]]
    return Q


def seed_extension(g: RefFamily, labels, rows):
    Q = _quasigroup_on(g, labels, rows)
    T = Q[g.T[:, :, None], np.arange(len(labels))[None, None, :]].reshape(len(g.x_labels), -1)
    s_labels = [(h, b) for h in g.s_labels for b in labels]
    return RefFamily(g.x_labels, tuple(s_labels), g.a_labels, T, g.x_add, g.a_add)


def point_extension(g: RefFamily, labels, rows):
    Q = _quasigroup_on(g, labels, rows)
    T = Q[g.T[:, None, :], np.arange(len(labels))[None, :, None]].reshape(-1, len(g.s_labels))
    x_labels = [(y, b) for y in g.x_labels for b in labels]
    return RefFamily(tuple(x_labels), g.s_labels, g.a_labels, T, None, g.a_add)


def cyclic_rows(labels):
    n = len(labels)
    return [[labels[(i + j) % n] for j in range(n)] for i in range(n)]


def group_rows(f: RefFamily):
    return [[f.a_labels[f.a_add[i, j]] for j in range(len(f.a_labels))]
            for i in range(len(f.a_labels))]


def concatenate(f1: RefFamily, f2: RefFamily):
    x2 = {x: i for i, x in enumerate(f2.x_labels)}
    to_x2 = np.array([x2[a] for a in f1.a_labels])
    T = f2.T[to_x2[f1.T]].reshape(len(f1.x_labels), -1)  # [x, s1, s2]
    s_labels = [(s1, s2) for s1 in f1.s_labels for s2 in f2.s_labels]
    return RefFamily(f1.x_labels, tuple(s_labels), f2.a_labels, T, f1.x_add, f2.a_add)


def double_extension(a: RefFamily):
    add, n = a.a_add, len(a.a_labels)
    r = np.arange(n)
    T = add[add[a.T[:, None, :, None], r[None, :, None, None]], r[None, None, None, :]]
    x_labels = [(y, b) for y in a.x_labels for b in a.a_labels]
    s_labels = [(h, c) for h in a.s_labels for c in a.a_labels]
    return RefFamily(tuple(x_labels), tuple(s_labels), a.a_labels,
                     T.reshape(len(x_labels), len(s_labels)), None, add)


def balanced_epsilon(a: RefFamily):
    """(eps, witness) with the witness first in (y < y', b) scan order."""
    add = a.a_add
    zero = int(np.flatnonzero((add == np.arange(len(a.a_labels))[None, :]).all(axis=1))[0])
    neg = np.argmax(add == zero, axis=1)
    nx, ns, na = a.shape
    best, witness = -1, None
    for i in range(nx - 1):
        diff = add[a.T[i][None, :], neg[a.T[i + 1:]]]
        counts = np.bincount((diff + na * np.arange(nx - i - 1)[:, None]).ravel(),
                             minlength=na * (nx - i - 1)).reshape(-1, na)
        j, b = np.unravel_index(np.argmax(counts), counts.shape)
        if counts[j, b] > best:
            best = int(counts[j, b])
            witness = (a.x_labels[i], a.x_labels[i + 1 + j], a.a_labels[b])
    return Fraction(best, ns), witness


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _rat(x):
    return None if x is None else f"{Fraction(x).numerator}/{Fraction(x).denominator}"


def seed_bounds(X, A, eps):
    eps = Fraction(eps)
    opt = Fraction(X - A, A * (X - 1))
    den_var = eps * A * (X - A) + A * A - X
    den_asu = eps * A * (X - 1) + A - X
    return {
        "variance": 1 + Fraction(X * (A - 1) ** 2) / den_var if den_var > 0 else None,
        "simple": Fraction(A) / eps,
        "ocfu": Fraction(A * (X - 1), A - 1) if eps == opt else None,
        "au": Fraction(X * (A - 1)) / den_var if den_var > 0 else None,
        "asu_variance": 1 + Fraction(X * (A - 1) ** 2) / den_asu if den_asu > 0 else None,
        "asu_simple": Fraction(A) / eps,
    }


def _homomorphic(f: RefFamily):
    if f.x_add is None or f.a_add is None:
        return False
    for x in range(len(f.x_labels)):
        if not (f.a_add[f.T[x][None, :], f.T] == f.T[f.x_add[x]]).all():
            return False
    return True


def classify(f: RefFamily) -> dict:
    """What ``classify`` must report, in the benchmark's canonical form."""
    T = f.T
    nx, ns, na = f.shape
    hist = np.stack([np.bincount(row, minlength=na) for row in T])
    regular = ns % na == 0 and bool((hist == ns // na).all())
    block = ns // na if regular else None

    best = {"AU": -1, "ACFU": -1, "ASU": -1}
    wit = {"AU": None, "ACFU": None, "ASU": None}
    X, A = f.x_labels, f.a_labels
    for i in range(nx - 1):
        n = nx - i - 1
        codes = (np.arange(n)[:, None] * na * na + T[i][None, :] * na + T[i + 1:]).ravel()
        N = np.bincount(codes, minlength=n * na * na).reshape(n, na, na)
        diag = N[:, np.arange(na), np.arange(na)]
        j = int(np.argmax(diag.sum(axis=1)))
        if diag[j].sum() > best["AU"]:
            best["AU"], wit["AU"] = int(diag[j].sum()), (X[i], X[i + 1 + j])
        j, k = np.unravel_index(np.argmax(diag), diag.shape)
        if diag[j, k] > best["ACFU"]:
            best["ACFU"], wit["ACFU"] = int(diag[j, k]), (X[i], X[i + 1 + j], A[k])
        j, k, l = np.unravel_index(np.argmax(N), N.shape)
        if N[j, k, l] > best["ASU"]:
            best["ASU"], wit["ASU"] = int(N[j, k, l]), (X[i], X[i + 1 + j], A[k], A[l])

    def eps(cls, norm):
        return Fraction(max(best[cls], 0), norm) if nx >= 2 else Fraction(0)

    out = {"regular": regular, "block_size": block, "eps_au": eps("AU", ns),
           "eps_acfu": None, "eps_asu": None, "eps_balanced": None,
           "witnesses": {"AU": wit["AU"]}}
    if regular:
        out["eps_acfu"], out["eps_asu"] = eps("ACFU", block), eps("ASU", block)
        out["witnesses"].update(ACFU=wit["ACFU"], ASU=wit["ASU"])
    if _homomorphic(f):
        e = int(np.flatnonzero((f.x_add == np.arange(nx)[None, :]).all(axis=1))[0])
        bbest, bwit = -1, None
        for i in range(nx):
            if i != e and hist[i].max() > bbest:
                k = int(np.argmax(hist[i]))
                bbest, bwit = int(hist[i, k]), (X[i], A[k])
        out["eps_balanced"] = Fraction(max(bbest, 0), ns)
        out["witnesses"]["BALANCED"] = bwit

    out["ocfu"] = out["ou"] = False
    out["equality"] = {}
    if nx > na >= 2:
        opt = Fraction(nx - na, na * (nx - 1))
        out["ou"] = out["eps_au"] == opt
        if regular:
            out["ocfu"] = out["eps_acfu"] == opt
            if out["eps_acfu"] > 0:
                out["equality"] = {k: v is not None and Fraction(ns) == v
                                   for k, v in seed_bounds(nx, na, out["eps_acfu"]).items()}
    return canonical(out)


def canonical(d: dict) -> dict:
    """Epsilons as "n/d" strings or None and witnesses as repr strings."""
    out = dict(d)
    for k in ("eps_au", "eps_acfu", "eps_asu", "eps_balanced"):
        out[k] = _rat(d[k])
    out["witnesses"] = {k: repr(v) for k, v in d["witnesses"].items()}
    return out


def expected_theorems(f: RefFamily, summary: dict) -> list:
    """Names of the implications ``check_structure_theorems`` must check, in order."""
    nx, ns, na = f.shape
    names = []
    if summary["ocfu"]:
        names.append("ocfu_members_are_bibds")
    if summary["regular"] and summary["equality"].get("variance"):
        names.append("variance_equality_dual_quasi_symmetric")
    if summary["ou"]:
        names.append("ou_sum_is_resolvable_bibd")
        lb_au = seed_bounds(nx, na, Fraction(summary["eps_au"]))["au"]
        if lb_au is not None and Fraction(ns) == lb_au:
            names.append("ou_au_equality_sum_is_affine")
    return names


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------


def members(f: RefFamily):
    return [(f.T == a).astype(np.int8) for a in range(len(f.a_labels))]


def sum_matrix(f: RefFamily):
    """Columns (s, a) in s-major order; x is in block (s, a) iff T[x, s] = a."""
    nx, ns, na = f.shape
    return (f.T[:, :, None] == np.arange(na)[None, None, :]).reshape(nx, ns * na).astype(np.int8)


def design_params(m) -> dict:
    """What ``analyze_structure(...).to_dict()`` must report for matrix m."""
    m = np.asarray(m, dtype=np.float64)
    v, b = m.shape
    k_all, r_all = m.sum(axis=0), m.sum(axis=1)
    const_k = b > 0 and bool((k_all == k_all[0]).all())
    const_r = v > 0 and bool((r_all == r_all[0]).all())
    k = int(k_all[0]) if const_k else None
    r = int(r_all[0]) if const_r else None
    pairs = np.rint(m @ m.T)[~np.eye(v, dtype=bool)]
    const_lam = pairs.size > 0 and bool((pairs == pairs[0]).all())
    lam = int(pairs[0]) if const_lam else None
    inter = np.rint(m.T @ m)[~np.eye(b, dtype=bool)]
    numbers = sorted({int(x) for x in np.unique(inter)})
    bibd = const_k and const_lam and lam >= 1 and k >= 1
    ok = True
    if const_k and const_r:
        ok = ok and b * k == v * r
    if bibd and const_r:
        ok = ok and lam * (v - 1) == r * (k - 1)
    return {"v": v, "b": b, "k": k, "r": r, "lambda": lam, "is_bibd": bibd,
            "intersection_numbers": numbers,
            "symmetric": bibd and len(numbers) == 1,
            "quasi_symmetric": bibd and len(numbers) == 2,
            "relations_ok": ok,
            "affine_block_count": const_r and b == v + r - 1}


def resolution_problem(m, classes):
    """None if classes partition the blocks of m into parallel classes, else why not."""
    m = np.asarray(m)
    seen = [j for c in classes for j in c]
    if sorted(seen) != list(range(m.shape[1])):
        return "classes do not partition the block indices"
    for c in classes:
        if not (m[:, list(c)].sum(axis=1) == 1).all():
            return f"class {list(c)[:4]}... does not cover every point once"
    return None


# ---------------------------------------------------------------------------
# privacy amplification
# ---------------------------------------------------------------------------


def renyi_inner(p):
    """sum_z (sum_x p(x,z)^2) / (sum_x p(x,z)) over the columns with mass."""
    total = Fraction(0)
    for col in zip(*p):
        mass = sum(col)
        if mass:
            total += sum(v * v for v in col) / mass
    return total


def product_source(p, n):
    """Rows and columns of the n-fold i.i.d. product, in lexicographic order."""
    rows = [[Fraction(1)]]
    for _ in range(n):
        rows = [[a * b for a in ra for b in rb] for ra in rows for rb in p]
    return rows


def security_distance(p, f: RefFamily):
    """max over a != a' of the l1 distance of p(z, s | a) and p(z, s | a')."""
    nx, ns, na = f.shape
    nz = len(p[0])
    joint = [dict() for _ in range(na)]
    for x in range(nx):
        for z in range(nz):
            if p[x][z]:
                w = p[x][z] / ns
                for s in range(ns):
                    cell = joint[int(f.T[x, s])]
                    cell[(z, s)] = cell.get((z, s), 0) + w
    mass = [sum(c.values()) for c in joint]
    best = Fraction(0)
    for a in range(na):
        for b in range(na):
            if a != b:
                keys = joint[a].keys() | joint[b].keys()
                d = sum(abs(joint[a].get(k, 0) / mass[a] - joint[b].get(k, 0) / mass[b])
                        for k in keys)
                best = max(best, d)
    return best
