"""Linear algebra kernel over a prime field, in pure Python.

Matrices are flat row-major lists of residues in [0, q).  The systems the
codec and the verifier build are small (the groups an erasure set hits in
at least t disks, plus the T long-layer checks), so exact Python ints are
fast enough.  mat_rank and mat_solve share one forward elimination to
row echelon form; the solve then back-substitutes, one sum of products
per pivot and right-hand-side column.  echelon_add grows a fraction-free
row echelon basis one row at a time, for rank checks that add rows
incrementally; first_dependent_packed runs the same elimination on rows
packed into lanes of one int, at lane_width's carry-free width, and
extends a kept basis of such rows in place.
"""

from operator import mul

BACKEND = "py"


def mat_mul(a, ar, ac, b, br, bc, q):
    """Return the flat product of a (ar x ac) and b (br x bc) mod q."""
    if ac != br:
        raise ValueError(f"dimension mismatch: {ar}x{ac} times {br}x{bc}")
    brows = [b[i * bc:(i + 1) * bc] for i in range(br)]
    out = []
    for i in range(ar):
        acc = [0] * bc
        base = i * ac
        for k in range(ac):
            v = a[base + k]
            if v:
                row = brows[k]
                acc = [x + v * y for x, y in zip(acc, row)]
        out.extend(x % q for x in acc)
    return out


def echelon_add(basis, row, q):
    """Reduce row, integers read mod q, against basis, a list of echelon
    (pivot, row) pairs; append it when independent and return True, else
    False.  Reduction is fraction-free, row <- b[pivot] * row - row[pivot]
    * b, so no inverse is taken and kept rows are not scaled to pivot 1."""
    for piv, b in basis:
        f = row[piv] % q
        if f:
            bp = b[piv]
            row = [(bp * x - f * y) % q for x, y in zip(row, b)]
    for piv, v in enumerate(row):
        if v % q:
            basis.append((piv, row))
            return True
    return False


def lane_width(lanes, q, terms):
    """Bits per lane at which first_dependent_packed eliminates rows of
    `lanes` lanes, each an input sum of at most `terms` products of two
    residues in 0..q-1, without a carry between lanes (proof there)."""
    return lanes - 1 + (lanes + 1) * (q - 1).bit_length() + terms.bit_length()


def first_dependent_packed(rows, basis, lanes, width, q):
    """The place of the first of rows that depends, mod q, on basis and
    the rows before it, or None; each independent row is appended to
    basis, which is extended in place.  Each row is one int of `lanes`
    lanes `width` bits apart, lane t being (row >> t * width) &
    (2^width - 1), read mod q, and width must be at least
    lane_width(lanes, q, terms) for rows whose input lanes are at most
    terms * (q-1)^2.  basis holds (shift, pivot lane mod q, row)
    triples, each kept by this routine at the same width: empty, or a
    path's rows kept one call at a time.

    The elimination is fraction-free on whole rows: a row is reduced
    against each kept row b in turn, with f its lane at b's pivot P and
    bp = b's lane P mod q, as row <- bp * row + (q - f) * b when f is
    nonzero mod q.  Lane P becomes bp f - f bp = 0 mod q, and the
    earlier pivots stay 0 mod q, as b is 0 mod q there.  The reduced
    row is a nonzero multiple of the row plus a combination of kept
    rows, so it is 0 mod q in every lane exactly when the row depends
    on the rows before it; any other is kept, pivoted on its first free
    lane (one no kept row pivots on) not 0 mod q.  No inverse and no
    per-lane % q is taken: each reduction is two multiplies and an add
    of whole ints.  Once `lanes` rows are kept they span every row, so
    the next is dependent with no arithmetic.

    Lane width: every lane stays a nonnegative integer, as bp and q - f
    lie in 1..q-1.  Let B_u = 2^u (q-1)^(u+2) terms, so B_0 bounds every
    input lane.  Kept row u was reduced against the u rows kept before
    it: in this call, or in an earlier one, as the basis comes from this
    routine at the same width.  A row about to be reduced against it has
    been reduced (or left alone) against the same u rows, so if both
    have lanes at most B_u, the reduction leaves at most (q-1) B_u +
    (q-1) B_u = B_{u+1}.  By induction every lane is at most B_u after
    u reductions.  At most `lanes` rows are kept and none is reduced
    against a full basis, so u <= lanes - 1 and every lane is at most
    2^(lanes-1) (q-1)^(lanes+1) terms < 2^(lanes - 1 + (lanes+1)
    bits(q-1) + bits(terms)) = 2^width.  Multiplying and adding whole
    ints then acts lane by lane: nonnegative lanes below 2^width never
    carry into the next, so every lane reads back exactly."""
    mask = (1 << width) - 1
    free = list(range(0, lanes * width, width))     # non-pivot lane shifts
    for s, _, _ in basis:
        free.remove(s)
    for at, v in enumerate(rows):
        if not free:
            return at
        for s, bp, b in basis:
            f = (v >> s & mask) % q
            if f:
                v = bp * v + (q - f) * b
        for s in free:
            f = (v >> s & mask) % q
            if f:
                basis.append((s, f, v))
                free.remove(s)
                break
        else:
            return at
    return None


def _eliminate(m, cols, q):
    """Pivot the rows m in place on their first cols columns; return the
    pivot columns.  Pivots are first-nonzero and scaled to 1, and the
    entries below each are cleared."""
    rows = len(m)
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        for piv in range(rank, rows):
            if m[piv][c]:
                break
        else:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        inv = pow(prow[c], -1, q)
        if inv != 1:
            prow = [(x * inv) % q for x in prow]
            m[rank] = prow
        for i in range(rank + 1, rows):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % q for x, y in zip(m[i], prow)]
        pivots.append(c)
        if rank + 1 == rows:
            break
    return pivots


def mat_rank(a, rows, cols, q):
    """Rank via Gaussian elimination with first-nonzero pivoting."""
    m = [list(a[i * cols:(i + 1) * cols]) for i in range(rows)]
    return len(_eliminate(m, cols, q))


def mat_solve(a, rows, cols, b, bcols, q):
    """Solve a x = b; return (rank of a, flat x of cols x bcols).

    x is None when the system is inconsistent.  Free variables are set
    to zero, so the solution is deterministic.  After the forward pass
    the rows below the rank are zero on a, so their b entries decide
    consistency; each pivot variable, last to first, is its row's b
    entry less the row's sum over the later variables.
    """
    m = [list(a[i * cols:(i + 1) * cols]) + list(b[i * bcols:(i + 1) * bcols])
         for i in range(rows)]
    pivots = _eliminate(m, cols, q)
    rank = len(pivots)
    if any(any(row[cols:]) for row in m[rank:]):
        return rank, None
    x = [0] * (cols * bcols)
    for e in range(bcols):
        z = [0] * cols
        for row, c in zip(reversed(m[:rank]), reversed(pivots)):
            z[c] = (row[cols + e]
                    - sum(map(mul, row[c + 1:cols], z[c + 1:]))) % q
        x[e::bcols] = z
    return rank, x
