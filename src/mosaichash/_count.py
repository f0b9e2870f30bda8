"""Every count the library decides with, and ``exact``, the one rule for the
dtype each is summed in.  Every counts record is made here, finished:
``member_counts`` and ``sum_counts`` read a family's off its two passes,
``gram_counts`` a bare 0/1 matrix's, both products m m^T and m^T m.

The point pass (``pair_classes``) counts the collision histogram N(x, x', a,
a') = #{s : T[x, s] = a, T[x', s] = a'} of a family's table (``pair_counts``,
over the code a*|A| + a').  AU, and ACFU and ASU of a regular table, are its
diagonal sum, largest diagonal bin and largest bin, at their first strict
maxima (``pair_max``); an irregular table has AU alone, the seeds where two
rows agree.  It marks which agreement counts occur (the sum's pair counts)
and, if regular, which N(x, x', a, a) (the members').  Under a family's
automorphisms (pi, sigma, tau), T[pi x, sigma s] = tau(T[x, s]), verified
once (``representatives``, whose orbit labels only this module reads), N is
invariant, so only rows r least in their X-orbit are counted (Kramer and
Mesner): (x, x') maps to (r, y) with r <= x and, if y < r, on to (r', z) with
r' <= y.  That descent takes every pair to a scanned one of equal counts, its
bin at a to one at tau(a), so the first strict maximum in the order x, x', a,
a' is scanned and the marks are exact, diagonal ones kept per value orbit.

The seed pass (``seed_classes``) is its twin on T^T, seeds for points:
N(s, s', a, a') = #{x : T[x, s] = a, T[x, s'] = a'} on the seeds least in
their S-orbit under the labels the point pass verified.  Its diagonal bins,
marked per value orbit, are the members' block intersections; all its bins
are the sum's, whose blocks of one seed are disjoint.

The kernel rule.  ``pair_counts`` counts N by one-hot products while |A| <=
ONE_HOT and at least ONE_HOT_ROWS * |A| rows are scanned: a tile of scanned
rows I against the rows J after I[0] is O[I] @ O[J]^T, O[x*|A| + a, s] =
[T[x, s] = a], less its pairs x' <= x, in exact(|S|, product=True); a tile,
its operands (summed over seed blocks) and its pairs hold about GRAM_BLOCK
entries each.  Otherwise it takes one bincount per block of pair_blocks: a
product spends |A|^2 multiply-adds per pair and seed, and over few rows it
does not repay building O[J].  On full scans of random regular tables of 64
to 1024 rows, one BLAS thread, the product was 1.0-2.4x as fast at |A| = 8,
0.75-1.45x at 9 and 0.3-0.5x at 16; over |A| rows of affine tables with |A|
<= 4, 0.85-1.05x, over 2|A| rows 1.1-1.6x.  The seed pass asked for the sum
reads its diagonal off those histograms; for the members alone it takes one
product L[I] @ L[J]^T per value, L = (T^T == a) in exact(|X|, product=True), at
every |A|: |A| multiply-adds per pair and point, not |A|^2 (histograms made
table-backed transversal(8, inf) 1.8x and dual_affine(16, 2) 4x slower).
``gram_half`` takes tiles of GRAM_ROWS rows: on random 0/1 matrices of 256 to
4096 rows and 16 to 512 columns, one BLAS thread, they took 1.25-3.7x less time
than one block of GRAM_BLOCK entries and, up to 1024 rows, were within 10% of
the best of 32 to 256 rows (32 lost up to 1.8x to BLAS overhead).

The memo.  ``pair_pass`` and ``seed_pass`` keep each pass on the family, so
a table is scanned once however many reports read it; a seed pass holding
the members' marks alone is counted again, with every bin, at the first
request for the sum, and never after.  ``held_counts`` reads a member's or
the sum's record off the memo alone, for the structures of a family's mosaic.

``exact`` reads a proven bound on every partial sum of non-negative
integers: a ``product`` is exact in float32 up to 2^24 and in float64 up to
2^53, as each partial sum is then an integer the float holds; any sum is
exact in int64 up to 2^63 - 1 (a wrapped int64 raises nothing) and in
Python ints (object) beyond.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import NotAnAutomorphism

PAIR_BLOCK = 1 << 15  # entries or bins of one block of pair_blocks, unless one row is larger
GRAM_BLOCK = 1 << 22  # entries of a product's row block; much thinner blocks halve BLAS's speed
ONE_HOT = 8  # largest |A| whose pair counts are one-hot products (measured crossover)
ONE_HOT_ROWS = 2  # scanned rows per value from which they are (measured too)
GRAM_ROWS = 128  # rows of a gram_half tile: within 10% of the best of 32 to 256 (module docstring)


def exact(bound, product=False):
    """The smallest dtype in which sums whose partial sums never pass bound are exact."""
    if product and bound <= 2**24:
        return np.float32
    if product and bound <= 2**53:
        return np.float64
    return np.int64 if bound <= 2**63 - 1 else object


def row_counts(T, na):
    """counts[x, a] = #{s : T[x, s] = a}."""
    nx = T.shape[0]
    keys = T + na * np.arange(nx)[:, None]
    return np.bincount(keys.ravel(), minlength=nx * na).reshape(nx, na)


def regular_block(T, na):
    """|S|/|A| if every value is hit that often in every row of T (ACFU1), else None."""
    block, rest = divmod(T.shape[1], na)
    return block if rest == 0 and bool((row_counts(T, na) == block).all()) else None


def pair_blocks(T, rows=None, bins=1):
    """Blocks (xs, ys, T[x], T[j:j + m]) over x in rows (default all) and the rows
    after it, m per block so that it holds about PAIR_BLOCK entries or bins * m;
    pair k of a block is (xs[k], ys[k]) = (x, j + k)."""
    nx, ns = T.shape
    step = max(1, PAIR_BLOCK // max(ns, bins))
    for i in range(nx) if rows is None else rows:
        for j in range(i + 1, nx, step):
            rest = T[j:j + step]
            yield [i] * len(rest), range(j, j + len(rest)), T[i], rest


def one_hot(T, na, dtype):
    """O[x*na + a, s] = 1 if T[x, s] = a, else 0, in dtype."""
    return (T[:, None, :] == np.arange(na)[:, None]).astype(dtype).reshape(-1, T.shape[1])


def incidence(T, na, dtype):
    """M[x, s*na + a] = 1 if T[x, s] = a, else 0, in dtype: the incidence
    matrix of the sum mosaic, one flat scatter."""
    out = np.zeros((T.shape[0], T.shape[1] * na), dtype=dtype)
    out.ravel()[np.arange(T.size) * na + T.ravel()] = 1
    return out


def joint_counts(T, na, num, den):
    """P[z, s, a] = sum_x num[x, z] [T[x, s] = a] in num's dtype, for counts
    num over den, so at most den: num^T times T's ``incidence`` in seed
    blocks of about min(GRAM_BLOCK, max(|Z||S||A|, PAIR_BLOCK)) entries while
    |A| <= min(2|Z|, 64) and exact(den, product=True) is a float, else one
    scatter of num in blocks of z of about PAIR_BLOCK entries.  On a 2-core
    Xeon, one BLAS thread, the product cost about |X||S||A|(0.7 + 0.07|Z|) ns
    and the scatter |X||S||Z| times 3 to 10 ns; over |X|, |S| of 64 to 4096,
    |Z| of 1 to 512 and |A| of 2 to 512 they were level near |A| = 16 for
    |Z| <= 8 and 64 for |Z| >= 32, and the rule's choice was at most 1.7x the other."""
    (nx, ns), nz = T.shape, num.shape[1]
    out = np.zeros((nz, ns * na), dtype=num.dtype)  # out[z, s*na + a]
    dtype = exact(den, product=na <= min(2 * nz, 64))
    if np.issubdtype(dtype, np.floating):
        block = min(GRAM_BLOCK, max(nz * ns * na, PAIR_BLOCK))
        counts, step = num.T.astype(dtype), max(1, block // (nx * na))
        for s in range(0, ns, step):
            out[:, s * na:(s + step) * na] = counts @ incidence(T[:, s:s + step], na, dtype)
    else:
        cell, step = np.arange(ns) * na + T, max(1, PAIR_BLOCK // T.size)
        for z in range(0, nz, step):
            zs = np.arange(z, min(nz, z + step))
            np.add.at(out.ravel(), (zs[:, None, None] * (ns * na) + cell).ravel(),
                      np.repeat(num[:, zs].T, ns))
    return out.reshape(nz, ns, na)


def pair_counts(T, na, rows=None):
    """Blocks (xs, ys, counts) of counts[k, a*na + a'] = #{s : T[xs[k], s] = a,
    T[ys[k], s] = a'} over the pairs x < x' with x in rows (default all), in
    (x, x') order: the histograms of the pair codes, by one-hot products in
    tiles of about GRAM_BLOCK entries or by bincount (module docstring)."""
    nx, ns = T.shape
    rows = np.arange(nx) if rows is None else np.asarray(rows)
    if na > ONE_HOT or len(rows) < ONE_HOT_ROWS * na:
        for xs, ys, row, rest in pair_blocks(T, rows, na * na):
            yield xs, ys, row_counts(rest + row * na, na * na)
        return
    dtype = exact(ns, product=True)
    start = 0
    while start < len(rows) and rows[start] < nx - 1:
        first = int(rows[start])
        tile = rows[start:start + max(1, GRAM_BLOCK // ((nx - first - 1) * na * na))]
        start += len(tile)
        width = max(1, GRAM_BLOCK // (len(tile) * na * na))  # all of J unless one row
        for j in range(first + 1, nx, width):
            rest = T[j:j + width]
            step = max(1, GRAM_BLOCK // (max(len(tile), len(rest)) * na))  # seeds per operand
            products = (one_hot(T[tile, s:s + step], na, dtype) @ one_hot(
                rest[:, s:s + step], na, dtype).T for s in range(0, max(ns, 1), step))
            counts = next(products)  # not a zeroed sum: first writes to fresh pages are slow
            for more in products:
                counts += more
            n, k = np.nonzero(tile[:, None] < np.arange(j, j + len(rest)))  # x < x'
            if len(n):
                counts = counts.reshape(len(tile), na, len(rest), na)[n, :, k]
                yield tile[n], j + k, counts.astype(np.int32).reshape(-1, na * na)


def pair_max(blocks, folds=(lambda v: v,)):
    """First strict maxima in (x, x', k) order, one (count, (x, x', k)) per fold
    or (-1, None) without a pair, over blocks (xs, ys, values) in that order,
    whose row r is pair (xs[r], ys[r]).  A fold maps a block's values to
    (rows, k) values."""
    found = [(-1, None)] * len(folds)
    for xs, ys, block in blocks:
        for n, fold in enumerate(folds):
            values = fold(block)
            k = int(values.argmax())
            if values.flat[k] > found[n][0]:
                r, c = divmod(k, values.shape[1])
                found[n] = int(values.flat[k]), (int(xs[r]), int(ys[r]), c)
    return found


def difference_max(T, minus):
    """The first strict maximum (count, (x, x', b)) of #{s : minus[T[x, s],
    T[x', s]] = b} over x < x' and b, or (-1, None): a bincount per pair block."""
    na = len(minus)
    [found] = pair_max((xs, ys, row_counts(minus.take(row * na + rest), na))
                       for xs, ys, row, rest in pair_blocks(T, bins=na))
    return found


def representatives(f, T):
    """Orbit labels (X, S, A) of f.automorphisms, each verified on T first: an
    element's label is the least index of its orbit."""
    ranges = np.arange(T.shape[0]), np.arange(T.shape[1]), np.arange(f.a_size)
    small = T.astype(np.min_scalar_type(f.a_size - 1))  # gathers on it run several times faster
    for n, (pi, sigma, tau) in enumerate(f.automorphisms):
        perms = all(np.array_equal(np.sort(p), r) for p, r in zip((pi, sigma, tau), ranges))
        if not (perms and np.array_equal(  # an identity sigma or tau is not applied
                small.take(pi, axis=0) if np.array_equal(sigma, ranges[1])
                else small.take(pi, axis=0).take(sigma, axis=1),
                small if np.array_equal(tau, ranges[2]) else tau.astype(small.dtype).take(small))):
            raise NotAnAutomorphism(f"automorphism {n} of {f.name} does not fix its table")
    labels = []
    for side, low in enumerate(ranges):  # minima along each g moving this side and along
        gens = [g[side] for g in f.automorphisms if not np.array_equal(g[side], low)]
        powers, old = [g[g] for g in gens], None  # g^(2^k) in round k, then halve distances
        while not np.array_equal(low, old):
            old = low
            for g, power in zip(gens, powers):
                low = np.minimum(np.minimum(low, low[g]), low[power])
            powers, low = [p[p] for p in powers], low[low]
        labels.append(low)
    return tuple(labels)


def pair_classes(f, T):
    """{class: (epsilon, witness)} of AU, and of ACFU and ASU if f is regular;
    "agree": agree[c] iff some x != x' agree on c seeds; "orbits": f's orbit
    labels; if regular, "diagonal": [a, c] iff some N(x, x', a, a) = c."""
    X, A, na = f.x_labels, f.a_labels, f.a_size
    orbits = representatives(f, T)
    block, rows = regular_block(T, na), np.flatnonzero(orbits[0] == np.arange(len(X)))
    seen = np.zeros(f.s_size + 1, dtype=bool)
    out = {"agree": seen, "orbits": orbits}

    def agree(hits):  # a block's agreement counts, its row sums, marked in seen
        counts = hits.sum(axis=1, keepdims=True)
        seen[counts] = True
        return counts

    if block is None:  # AU alone: the seeds where x and x' agree, O(|S|) per pair
        names = ("AU",)
        found = pair_max((xs, ys, agree(row == rest)) for xs, ys, row, rest in pair_blocks(T, rows))
    else:  # AU, ACFU and ASU: diagonal sum, diagonal bin and any bin of one histogram
        diag, values = np.arange(na) * (na + 1), orbits[2]  # the codes a*na + a
        names = ("AU", "ACFU", "ASU")
        marks = np.zeros((na, f.s_size + 1), dtype=bool)

        def diagonal(c):  # a block's diagonal bins, N(x, x', a, a) marked at a's value orbit
            bins = c[:, diag]
            marks[values, bins] = True
            return bins

        found = pair_max(pair_counts(T, na, rows), (
            lambda c: agree(c[:, diag]), diagonal, lambda c: c))
        out["diagonal"] = marks[values]  # value a's marks: the union over its orbit
    for name, (best, where) in zip(names, found):
        if where is None:
            out[name] = Fraction(0), None
            continue
        i, j, c = where
        values = {"AU": (), "ACFU": (c,), "ASU": divmod(c, na)}[name]
        out[name] = (Fraction(best, f.s_size if name == "AU" else block),
                     (X[i], X[j], *(A[k] for k in values)))
    return out


def pair_pass(f, T):
    """f's memoised ``pair_classes``, counted on T at the first call."""
    if f._pairs is None:
        f._pairs = pair_classes(f, T)
    return f._pairs


def seed_classes(f, T, full):
    """(diagonal, blocks, cols) of f's seed side, T^T scanned on the rows least in
    their seed orbit (``pair_pass``'s labels): diagonal[a, c] iff some N(s, s', a, a)
    = c, marked at a's value orbit; if full, blocks[c] iff two blocks of f's sum
    meet in c points, else None; cols = ``row_counts`` of T^T."""
    (X, S), na, (_, orbit, values) = T.shape, f.a_size, pair_pass(f, T)["orbits"]
    seeds, rows = np.ascontiguousarray(T.T), np.flatnonzero(orbit == np.arange(S))
    marks, blocks = np.zeros((na, X + 1), dtype=bool), None
    if full:  # every bin of pair_counts, the diagonal read off the same histograms
        blocks = np.zeros(X + 1, dtype=bool)
        blocks[0] = na >= 2  # blocks of one seed are disjoint
        for _, _, counts in pair_counts(seeds, na, rows):
            blocks[counts] = True
            marks[values, counts[:, np.arange(na) * (na + 1)]] = True
    else:  # a level-set product per value, a tile of scanned rows against the rows after its first
        step, dtype = max(1, GRAM_BLOCK // max(S, 1)), exact(X, product=True)
        for tile in (rows[i:i + step] for i in range(0, len(rows), step)):
            own, rest = seeds[tile], seeds[tile[0] + 1:]
            pairs = tile[:, None] < np.arange(tile[0] + 1, S)  # s < s'
            for a in range(na):
                counts = (own == a).astype(dtype) @ (rest == a).astype(dtype).T
                marks[values[a], counts.astype(np.intp)[pairs]] = True
    return marks[values], blocks, row_counts(seeds, na)


def seed_pass(f, T, full=False):
    """f's memoised ``seed_classes``, counted on T at the first call, and once more
    with every bin at the first call that asks for them (full)."""
    if f._seeds is None or full and f._seeds[1] is None:
        f._seeds = seed_classes(f, T, full)
    return f._seeds


def present(counts):
    """The values of nonzero count in a histogram, in order."""
    return tuple(itertools.compress(range(len(counts)), counts))


def gram_half(m):
    """Histograms (entry k counts the entries equal to k) of a 0/1 matrix's row
    sums and of the pair counts of m m^T over ordered pairs: a tile of GRAM_ROWS
    rows (fewer past GRAM_BLOCK entries) times the rows from its first on, whose
    square block counts both orders and the diagonal, the rest each pair once,
    doubled; no partial sum passes the diagonal."""
    on = np.bincount(m.sum(axis=1, dtype=np.int32), minlength=1)
    g = m.astype(exact(len(on) - 1, product=True))
    off, step = -on, max(1, min(GRAM_ROWS, GRAM_BLOCK // max(len(g), 1)))  # blocks add on back
    for i in range(0, len(g), step):
        tile, rest = g[i:i + step], g[i + step:]
        off += np.bincount((tile @ tile.T).astype(np.intp).ravel(), minlength=len(on))
        if len(rest):  # an empty product would add a third to a small matrix's counting
            off += 2 * np.bincount((tile @ rest.T).astype(np.intp).ravel(), minlength=len(on))
    return tuple(on.tolist()), tuple(off.tolist())


def gram_counts(m):
    """The counts record of a 0/1 matrix, only ints: the ``gram_half`` of m (its
    points half) and of m^T (blocks half); the dual's is the two swapped."""
    m = np.asarray(m)
    return tuple(gram_half(g) for g in (m, m.T))


def histogram(counts):
    """Entry k counts the entries of counts equal to k."""
    return tuple(np.bincount(counts.ravel(), minlength=1).tolist())


def member_counts(f, T, a):
    """The counts record of member T == a of a regular f: its row sums, |S|/|A|
    at every point, its column sums' histogram, and its pair counts and block
    intersections as the diagonal marks of the point and the seed pass."""
    pairs, (meets, _, cols) = pair_pass(f, T)["diagonal"], seed_pass(f, T)
    points = (0,) * (f.s_size // f.a_size) + (f.x_size,)
    return (points, tuple(pairs[a].tolist())), (histogram(cols[:, a]), tuple(meets[a].tolist()))


def sum_counts(f, T):
    """The counts record of f's sum mosaic: each point on |S| blocks, block (s, a)
    of #{x : T[x, s] = a} points, its pair counts the agreement counts the point
    pass marked, its block intersections every bin the seed pass marked."""
    _, blocks, cols = seed_pass(f, T, full=True)
    return (((0,) * f.s_size + (f.x_size,), tuple(pair_pass(f, T)["agree"].tolist())),
            (histogram(cols), tuple(blocks.tolist())))


def held_counts(f, T, a=None):
    """``member_counts`` of member a, or ``sum_counts`` if a is None, when f's memo
    already holds the passes they read (a regular pair pass and a seed pass; a
    seed pass with every bin), else None: it never starts a pass."""
    if f._seeds is None:
        return None
    if a is None:
        return sum_counts(f, T) if f._seeds[1] is not None else None
    return member_counts(f, T, a) if "diagonal" in f._pairs else None
