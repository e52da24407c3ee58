"""Linear algebra kernel over a prime field, in pure Python.

Matrices are flat row-major lists of residues in [0, q).  The systems the
codec and the verifier build are small (the groups an erasure set hits in
at least t disks, plus the T long-layer checks), so exact Python ints are
fast enough.  mat_rank and mat_solve share one Gauss-Jordan elimination:
the rank stops at row echelon form, the solve reduces fully.  echelon_add
grows a fraction-free row echelon basis one row at a time, for rank
checks that add rows incrementally, and annihilator gives the quotient
by such a basis's span in gathered form: its free columns and their
coefficients on the pivots, so a row maps to it at the cost of the span's
dimension, not of its width.
"""

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


def annihilator(basis, cols, q):
    """The quotient by the span of an echelon_add basis of cols-wide
    rows, gathered: (pivots, free, coef), where free lists the non-pivot
    columns and coef[a] holds the s coefficients of free[a] on the
    pivots.  Coordinate a of a row v is v[free[a]] + sum over i of
    coef[a][i] * v[pivots[i]], and v lies in the span exactly when every
    coordinate is 0 mod q.

    A basis row is zero at the pivots of the rows before it, so its
    pivot entries form an upper triangular matrix, and the reduced
    echelon rows R_i follow last to first: R_i is row i less b[P_k] R_k
    for each later pivot P_k, over b[P_i].  Coordinate a is y . v for
    y = e_c minus R_i[c] at each pivot P_i, c = free[a], so coef[a][i]
    is -R_i[c], found column by column.  Each y vanishes on the basis,
    and the cols - s of them are independent, as each has its only free
    entry at its own c, so their common kernel has dimension s and is
    the span.  No cols-wide row is built: a caller maps a row with
    s + 1 terms per coordinate."""
    pivots = [piv for piv, _ in basis]
    free = [c for c in range(cols) if c not in pivots]
    s = len(basis)
    invs = [-pow(b[piv], -1, q) for piv, b in basis]
    coef = []
    for c in free:
        neg = [0] * s       # -R_i[c], last to first
        for i in range(s - 1, -1, -1):
            b = basis[i][1]
            acc = b[c]
            for k in range(i + 1, s):
                acc += b[pivots[k]] * neg[k]
            neg[i] = acc * invs[i] % q
        coef.append(neg)
    return pivots, free, coef


def _eliminate(m, cols, q, reduce):
    """Pivot the rows m in place on their first cols columns; return the
    pivot columns.  Pivots are first-nonzero and scaled to 1; entries
    below each are cleared, and with reduce those above it too."""
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
        for i in range(0 if reduce else rank + 1, rows):
            f = m[i][c]
            if f and i != rank:
                m[i] = [(x - f * y) % q for x, y in zip(m[i], prow)]
        pivots.append(c)
        if rank + 1 == rows:
            break
    return pivots


def mat_rank(a, rows, cols, q):
    """Rank via Gaussian elimination with first-nonzero pivoting."""
    m = [list(a[i * cols:(i + 1) * cols]) for i in range(rows)]
    return len(_eliminate(m, cols, q, reduce=False))


def mat_solve(a, rows, cols, b, bcols, q):
    """Solve a x = b; return (rank of a, flat x of cols x bcols).

    x is None when the system is inconsistent.  Free variables are set
    to zero, so the solution is deterministic.
    """
    w = cols + bcols
    m = [list(a[i * cols:(i + 1) * cols]) + list(b[i * bcols:(i + 1) * bcols])
         for i in range(rows)]
    pivots = _eliminate(m, cols, q, reduce=True)
    rank = len(pivots)
    if any(any(row[cols:w]) for row in m[rank:]):
        return rank, None
    x = [0] * (cols * bcols)
    for row, c in zip(m, pivots):
        x[c * bcols:(c + 1) * bcols] = row[cols:w]
    return rank, x
