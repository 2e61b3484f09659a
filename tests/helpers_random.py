"""Seeded random constructions for the property tests.

Everything takes an explicit random.Random so a failing case can be
replayed from its seed alone.
"""

from semidual.fpmod import FPModule, RingMatrix
from semidual.polyring import mono_mul
from semidual.linalg import matrix_rank


def random_homogeneous(R, d, rng, allow_zero=False):
    """A random degree-d element as a combination of the standard
    monomials of R; None when the degree-d piece is empty."""
    monos = R.std_monomials(d)
    if not monos:
        return None
    amb = R.ambient
    while True:
        f = amb.zero()
        for e in monos:
            c = rng.randrange(R.field.p)
            if c:
                f = f + amb.monomial(e, c)
        if allow_zero or not f.is_zero:
            return f


def random_element(R, rng, max_degree=3):
    """A nonzero homogeneous element of some degree in 1..max_degree."""
    degrees = [d for d in range(1, max_degree + 1) if R.std_monomials(d)]
    d = rng.choice(degrees)
    return random_homogeneous(R, d, rng)


def shift_spread(R):
    """Degree shifts that admit nonzero homogeneous entries: small ones
    on standard gradings, the variable weights otherwise."""
    if all(w == 1 for w in R.ambient.weights):
        return [0, 1, 2]
    return sorted({0, *R.ambient.weights})


def random_module(R, rng, max_gens=2, max_rels=3, degree_cap=3):
    """A nonzero module with a couple of generators and random
    homogeneous relations."""
    spread = shift_spread(R)
    while True:
        ngens = rng.randint(1, max_gens)
        gdegs = tuple(rng.choice(spread[:2]) for _ in range(ngens))
        cols = []
        cdegs = []
        for _ in range(rng.randint(0, max_rels)):
            shift = rng.choice([s for s in spread if s > 0])
            cdeg = max(gdegs) + shift
            col = []
            for gd in gdegs:
                f = None
                if cdeg - gd > 0 and rng.random() < 0.8:
                    f = random_homogeneous(R, cdeg - gd, rng,
                                           allow_zero=True)
                col.append(f if f is not None else R.ambient.zero())
            if any(not f.is_zero for f in col):
                cols.append(tuple(col))
                cdegs.append(cdeg)
        if cols:
            rel = RingMatrix.from_columns(R, cols, gdegs, cdegs)
            M = FPModule(R, gdegs, rel)
        else:
            M = FPModule(R, gdegs)
        if not M.is_zero_module():
            return M


def random_surjection(R, rng, max_rows=3, max_cols=4):
    """A random matrix whose scalar part has full row rank, so the map
    it defines on any power of a module is a split surjection.

    The first q columns carry an invertible random scalar block, so the
    rows share one degree; the rest mix scalars and higher-degree
    homogeneous entries."""
    p = R.field.p
    q = rng.randint(1, max_rows)
    n = rng.randint(q, max_cols)
    spread = shift_spread(R)
    rdegs = (rng.choice(spread[:2]),) * q
    while True:
        block = [[rng.randrange(p) for _ in range(q)] for _ in range(q)]
        if matrix_rank([row[:] for row in block], p) == q:
            break
    cdegs = list(rdegs)
    amb = R.ambient
    cols = [tuple(amb.constant(block[i][j]) for i in range(q))
            for j in range(q)]
    for _ in range(n - q):
        shift = rng.choice(spread)
        cdeg = max(rdegs) + shift
        col = []
        for rd in rdegs:
            d = cdeg - rd
            f = None
            if d == 0:
                f = amb.constant(rng.randrange(p))
            elif d > 0 and rng.random() < 0.8:
                f = random_homogeneous(R, d, rng, allow_zero=True)
            col.append(f if f is not None else amb.zero())
        cols.append(tuple(col))
        cdegs.append(cdeg)
    return RingMatrix.from_columns(R, cols, rdegs, cdegs)


def random_block(R, rng, max_cols=3):
    """(seed, cols, row_degrees) of one row block: the reduced relation
    basis of a random module over R, and homogeneous columns in its rows,
    the last one a variable times the first, so that it is redundant."""
    M = random_module(R, rng)
    amb = R.ambient
    ncols = rng.randint(1, max_cols)
    cols = []
    while len(cols) < ncols:
        shift = rng.choice([s for s in shift_spread(R) if s > 0])
        cdeg = max(M.gen_degrees) + shift
        col = {}
        for i, gd in enumerate(M.gen_degrees):
            f = random_homogeneous(R, cdeg - gd, rng) if cdeg > gd else None
            if f is not None:
                col.update({(i, e): c for e, c in f.terms})
        if col:
            cols.append(col)
    x = amb.variable(0).terms[0][0]
    cols.append({(i, mono_mul(e, x)): c for (i, e), c in cols[0].items()})
    return list(M.relgb.basis), cols, list(M.gen_degrees)


def seed_only_block(R, rng):
    """A block with seed vectors and no columns."""
    while True:
        seed, _, rdegs = random_block(R, rng)
        if seed:
            return seed, [], rdegs


def block_diagonal(blocks, rng):
    """(seed, cols, row_degrees, zero_col) with the blocks placed along the
    diagonal: rows and columns of different blocks interleaved by a seeded
    shuffle that keeps each block's own order, and one zero column, at
    index zero_col.  A block listed twice becomes two identical copies; a
    block with no columns contributes seed vectors only."""
    row_owner = [b for b, (_, _, rdegs) in enumerate(blocks) for _ in rdegs]
    rng.shuffle(row_owner)
    rows = [[] for _ in blocks]
    for r, b in enumerate(row_owner):
        rows[b].append(r)
    row_degrees = [None] * len(row_owner)
    for b, (_, _, rdegs) in enumerate(blocks):
        for r, d in zip(rows[b], rdegs):
            row_degrees[r] = d

    def place(b, v):
        return {(rows[b][i], e): c for (i, e), c in v.items()}

    seed = [place(b, v) for b, (bseed, _, _) in enumerate(blocks)
            for v in bseed]
    col_owner = [b for b, (_, bcols, _) in enumerate(blocks) for _ in bcols]
    rng.shuffle(col_owner)
    nxt = [0] * len(blocks)
    cols = []
    for b in col_owner:
        cols.append(place(b, blocks[b][1][nxt[b]]))
        nxt[b] += 1
    zero_col = rng.randrange(len(cols) + 1)
    cols.insert(zero_col, {})
    return seed, cols, row_degrees, zero_col


def components(cols, seed=()):
    """The component of each column and then of each seed vector, numbered
    in order of first column: two vectors are linked when they share a row.
    A zero column is a component of its own; a seed vector that no column
    reaches gets None."""
    vecs = list(cols) + list(seed)
    by_row = {}
    for j, v in enumerate(vecs):
        for r, _ in v:
            by_row.setdefault(r, []).append(j)
    comp = [None] * len(vecs)
    n = 0
    for j in range(len(cols)):
        if comp[j] is None:
            todo = [j]
            while todo:
                c = todo.pop()
                if comp[c] is None:
                    comp[c] = n
                    todo += [k for r, _ in vecs[c] for k in by_row[r]]
            n += 1
    return comp


def by_components(cols, seed, solve):
    """solve(cols of one component, its seed vectors, its column indices)
    for each component of the columns, in order."""
    comp = components(cols, seed)
    ncols = len(cols)
    out = []
    for c in range(max(comp[:ncols], default=-1) + 1):
        idx = [j for j in range(ncols) if comp[j] == c]
        bseed = [v for v, k in zip(seed, comp[ncols:]) if k == c]
        out.append(solve([cols[j] for j in idx], bseed, idx))
    return out
