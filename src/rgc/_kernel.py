"""Linear algebra kernel over a prime field, in pure Python.

Matrices are flat row-major lists of residues in [0, q).  The systems the
codec and the verifier build are small (the groups an erasure set hits in
at least t disks, plus the T long-layer checks), so exact Python ints are
fast enough.  mat_rank and mat_solve share one Gauss-Jordan elimination:
the rank stops at row echelon form, the solve reduces fully.  echelon_add
grows a fraction-free row echelon basis one row at a time, for rank
checks that add rows incrementally, and annihilator turns such a basis
into the rows that vanish on its span.
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
    """The rows y, one per non-pivot column c of an echelon_add basis of
    cols-wide rows, with y . b = 0 mod q for every basis row b; a row v
    lies in the basis's span exactly when every y . v is 0 mod q.

    A basis row is zero at the pivots of the rows before it, so its
    pivot entries form an upper triangular matrix, and the reduced
    echelon rows R_i, known on the non-pivot columns, follow last to
    first: R_i is row i less b[P_k] R_k for each later pivot P_k, over
    b[P_i].  Then y is e_c minus R_i[c] at each pivot P_i.  The cols - s
    rows are independent, as each has its only non-pivot entry at its
    own c, so their common kernel has dimension s and is the span."""
    pivots = [piv for piv, _ in basis]
    free = [c for c in range(cols) if c not in pivots]
    s = len(basis)
    neg = [None] * s        # -R_i on the free columns
    for i in range(s - 1, -1, -1):
        b = basis[i][1]
        acc = [b[c] for c in free]
        for k in range(i + 1, s):
            f = b[pivots[k]]
            if f:
                acc = [u + f * w for u, w in zip(acc, neg[k])]
        inv = -pow(b[pivots[i]], -1, q)
        neg[i] = [u * inv % q for u in acc]
    out = []
    for at, c in enumerate(free):
        y = [0] * cols
        y[c] = 1
        for piv, row in zip(pivots, neg):
            y[piv] = row[at]
        out.append(y)
    return out


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
