"""Shared helpers for the test suite: random instances, relabelings and fresh
interpreters."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from mosaichash import FunctionTable, JointSource, Quasigroup, _count

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("product", "bincount")  # the two ways _count.pair_counts counts a pair histogram


def force_kernel(monkeypatch, kernel=None, gram=None):
    """Make _count.pair_counts count every pair histogram by one-hot products
    or by bincount alone (None: as it chooses), and every product, gram_half's
    too, in tiles of about gram entries."""
    limits = {"product": {"ONE_HOT": 1 << 30, "ONE_HOT_ROWS": 0}, "bincount": {"ONE_HOT": 0}}
    for name, value in limits.get(kernel, {}).items():
        monkeypatch.setattr(_count, name, value)
    if gram is not None:
        monkeypatch.setattr(_count, "GRAM_BLOCK", gram)


def run_python(*args):
    """``python *args`` in a fresh interpreter that imports the library from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


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


def planted_cyclic_table(rng, k, nx0, ns0, na, name="planted", moves_values=False):
    """T[(i, x0), (j, s0)] = R[x0, s0, (j - i) mod k], each R[x0] a shuffled
    balanced multiset, so (ACFU1) holds; the shift (i, j) -> (i + 1, j + 1)
    is attached as the family's one automorphism.  Point and seed indices
    are x0 * k + i and s0 * k + j, so the orbit representatives 0, k, 2k, ...
    leave rows between them to the witness scan.  With moves_values (na
    dividing k), T adds i mod na and the shift takes each value a to a + 1."""
    R = []
    for _ in range(nx0):
        flat = list(range(na)) * (ns0 * k // na)
        rng.shuffle(flat)
        R.append([flat[s0 * k:(s0 + 1) * k] for s0 in range(ns0)])
    xs = [(i, x0) for x0 in range(nx0) for i in range(k)]
    ss = [(j, s0) for s0 in range(ns0) for j in range(k)]
    rows = [[(R[x0][s0][(j - i) % k] + i * moves_values) % na for j, s0 in ss] for i, x0 in xs]
    f = FunctionTable(xs, ss, range(na), rows).to_family(name)
    shift = lambda n: np.array([m // k * k + (m + 1) % k for m in range(n)])
    tau = (np.arange(na) + moves_values) % na
    f.automorphisms = ((shift(len(xs)), shift(len(ss)), tau),)
    return f


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
    return FunctionTable(new_labels, T.s_labels, T.a_labels, T.array).to_family(f.name)


def flip_source(m, p):
    """Uniform X on {0..m-1}; Z equals X except with probability p it is
    uniform over the other m-1 letters."""
    p = Fraction(p)
    rows = [
        [(1 - p) / m if z == x else p / (m * (m - 1)) for z in range(m)]
        for x in range(m)
    ]
    return JointSource(list(range(m)), list(range(m)), rows)
