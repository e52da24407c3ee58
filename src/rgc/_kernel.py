"""Linear algebra kernel over a prime field, in pure Python.

Matrices are flat row-major lists of residues in [0, q).  The systems the
codec and the verifier build are small (the groups an erasure set hits in
at least t disks, plus the T long-layer checks), so exact Python ints are
fast enough.
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


def mat_rank(a, rows, cols, q):
    """Rank via Gaussian elimination with first-nonzero pivoting."""
    m = [list(a[i * cols:(i + 1) * cols]) for i in range(rows)]
    rank = 0
    for c in range(cols):
        piv = -1
        for i in range(rank, rows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
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
                row = m[i]
                m[i] = [(x - f * y) % q for x, y in zip(row, prow)]
        rank += 1
        if rank == rows:
            break
    return rank


def mat_solve(a, rows, cols, b, bcols, q):
    """Solve a x = b; return flat x (cols x bcols) or None if inconsistent.

    Free variables are set to zero; pivot variables are filled
    lowest-pivot-first, so the solution is deterministic.
    """
    w = cols + bcols
    m = []
    for i in range(rows):
        m.append(list(a[i * cols:(i + 1) * cols]) +
                 list(b[i * bcols:(i + 1) * bcols]))
    pivots = []
    rank = 0
    for c in range(cols):
        piv = -1
        for i in range(rank, rows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        inv = pow(prow[c], -1, q)
        if inv != 1:
            prow = [(x * inv) % q for x in prow]
            m[rank] = prow
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                row = m[i]
                m[i] = [(x - f * y) % q for x, y in zip(row, prow)]
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    for i in range(rank, rows):
        if any(m[i][cols:w]):
            return None
    x = [0] * (cols * bcols)
    for prow_idx, c in enumerate(pivots):
        x[c * bcols:(c + 1) * bcols] = m[prow_idx][cols:w]
    return x
