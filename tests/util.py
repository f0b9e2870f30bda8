"""Shared helpers for the test suite: random instances and relabelings."""

from fractions import Fraction

from mosaichash import FunctionTable, JointSource, Quasigroup


def random_table(rng, nx, ns, na, name="rand"):
    rows = [[rng.randrange(na) for _ in range(ns)] for _ in range(nx)]
    return FunctionTable(range(nx), range(ns), range(na), rows).to_family(name)


def random_regular_table(rng, nx, ns, na, name="randreg"):
    """Rows are shuffled balanced multisets, so (ACFU1) holds by construction."""
    assert ns % na == 0
    base = list(range(na)) * (ns // na)
    rows = []
    for _ in range(nx):
        row = base[:]
        rng.shuffle(row)
        rows.append(row)
    return FunctionTable(range(nx), range(ns), range(na), rows).to_family(name)


def random_latin(rng, labels):
    """Random latin square on the given labels, by shuffling a cyclic table."""
    labels = list(labels)
    n = len(labels)
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    rng.shuffle(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    cols = list(range(n))
    rng.shuffle(cols)
    return Quasigroup(
        labels, [[labels[perm[row[c]]] for c in cols] for row in rows]
    )


def relabel_points(f, new_labels):
    """Same function table with the point set renamed positionally."""
    T = f.to_table()
    return FunctionTable(new_labels, T.s_labels, T.a_labels, T.entries).to_family(f.name)


def flip_source(m, p):
    """Uniform X on {0..m-1}; Z equals X except with probability p it is
    uniform over the other m-1 letters."""
    p = Fraction(p)
    rows = [
        [(1 - p) / m if z == x else p / (m * (m - 1)) for z in range(m)]
        for x in range(m)
    ]
    return JointSource(list(range(m)), list(range(m)), rows)
