"""Two-layer erasure code construction driven by a block design.

This module derives a design's parameters once per code, for either
constructor: the closed form on a Steiner system at k = n - 2, or
synthesize_S, which finds the long-parity matrix S of a code spec
(codespec) and proves that it decodes.  The last T of the m * N
long-layer slots hold the parity symbols S @ d, sized so that any n - k
disk erasures still leave a rank-M system.  T is the worst
case, over erasure sets A, of the symbol deficit beyond what the short
layer absorbs; compute_T walks the sets until one reaches a double-count
bound that no set exceeds.

A group whose block meets A in e >= t disks is heavy: its long-layer
column is known up to a kernel of dimension e - t + 1 (group_decoder,
keyed by the group's lost-row mask, gives it and the rows it uses);
every other group is decodable from its own rows.  Stacking the heavy
groups' kernels K_A, the T long-layer parity checks give the T x T(A)
matrix [S | -I] K_A, and A is decodable exactly when it has rank T(A).
verify_S and compute_T read one walk of the erasure sets as paths of
their prefix tree (_walk), which only enumerates: one more erased disk
only grows the kernels of the blocks that contain it, so span(K_A) is
built one vector at a time, and an image under [S | -I] that depends on
the earlier ones fails every completion of the prefix.  A set's last
disk is a leaf of its head, the path without it, and verify_S decides
it in its own loop: one annihilator of the head's s path images gives
the quotient gathered (free columns and their coefficients on the
pivots), each leaf image maps to its T - s coordinates with s + 1 terms
each, unrolled for three on three, and a determinant, a cross product
or a small elimination decides them.  rank_witness takes its heavy
groups' kernels from group_decoder to build, for one erasure set, a 0/1
matrix S that satisfies the condition, so the generic determinant
argument for random S is checkable per set.  erasure_system is the
independent dense reference: every symbol stored on a surviving disk as
a linear form in the message.
"""

from __future__ import annotations

import itertools
import random
from math import comb
from operator import mul

from ._kernel import annihilator as _annihilator
from ._kernel import echelon_add as _kadd
from ._kernel import mat_mul as _kmul
from ._kernel import mat_rank as _krank
from ._record import record, require_int
from .codespec import (CodeParams, CodeSpec, _params, _require_code_design,
                       build_layout, group_decoder)
from .designs import (BlockDesign, closed_form_Tc, is_complete_design,
                      t_subset_counts)
from .ffield import PrimeField, next_prime


# Cap on the erasure sets that compute_T and verify_S enumerate.
MAX_SUBSETS = 10 ** 6


class BudgetExceededError(ValueError):
    """A combinatorial enumeration would exceed its configured cap."""


class SynthesisError(ValueError):
    """No admissible long-parity matrix found within the attempt budget."""


class WitnessError(RuntimeError):
    """Internal failure while building a rank witness; indicates a bug."""


def _erasure_set(n: int, a, size: int | None = None) -> frozenset[int]:
    """The disks of erasure set a; ValueError names a disk outside 1..n,
    a disk listed twice, or a set that does not have `size` disks."""
    seen: set[int] = set()
    for x in a:
        if not 1 <= x <= n:
            raise ValueError("erasure set leaves the ground set")
        if x in seen:
            raise ValueError(f"erasure set lists disk {x} twice")
        seen.add(x)
    if size is not None and len(seen) != size:
        raise ValueError(f"erasure set must have n-k = {size} disks, "
                         f"got {len(seen)}")
    return frozenset(seen)


def compute_TA(design: BlockDesign, a) -> int:
    """Symbol deficit of erasure set a: sum over blocks meeting a in at
    least t elements of (|B & a| - t + 1)."""
    aset = _erasure_set(design.n, a)
    total = 0
    for block in design.blocks:
        e = len(aset.intersection(block))
        if e >= design.t:
            total += e - design.t + 1
    return total


def erasure_deficits(design: BlockDesign, k: int):
    """Iterator over T(A) for every (n-k)-subset A, in lexicographic order:
    each read off _walk as the path's vectors plus the last disk's pairs.

    Raises BudgetExceededError up front when there are more than
    MAX_SUBSETS erasure sets.
    """
    n = design.n
    miss = n - k
    total = comb(n, miss)
    if total > MAX_SUBSETS:
        raise BudgetExceededError(
            f"C({n},{miss}) = {total} erasure sets exceed the cap "
            f"{MAX_SUBSETS}")
    return (len(vectors) + len(pairs)
            for _, vectors, pairs, _ in _walk(design, miss))


def _walk(design: BlockDesign, miss: int, sets=None, grow=None):
    """Yield (a, vectors, pairs, fail) for each erasure set a of `sets`,
    by default every miss-subset of the disks, walked as paths of the
    prefix tree.  Sharing prefixes needs the sets as ascending tuples in
    lexicographic order, so the walk makes that enumeration itself; a
    caller passes only the sets of a sample, in that order.

    The path erases the set's head, every disk but the last, keeping
    what it shares with the previous set.  Erasing disk x sets bit i in
    the hit mask of each block holding x as row i.  A block with e >= t
    erased rows gains one kernel vector, for its highest erased row;
    grow(vectors, j, hits) appends it, or returns False when it depends
    on the path's vectors (without grow, vectors are only counted).
    vectors is the path's list, shared and valid until the next item.
    The last disk is only tried: pairs are the (j, hits) of each block
    through it that reaches t hits, so T(A) = len(vectors) + len(pairs)
    unless a failed.  fail is 0 or the length of the failed prefix, and
    every completion of a failed prefix fails, with empty pairs and no
    more work.
    """
    t = design.t
    if sets is None:
        sets = itertools.combinations(range(1, design.n + 1), miss)
    blocks_of = [[] for _ in range(design.n + 1)]
    for j, block in enumerate(design.blocks):
        for i, x in enumerate(block):
            blocks_of[x].append((j, 1 << i))
    hits = [0] * design.num_blocks
    path, vectors = [], []      # path: (disk, len(vectors) before it)
    head, fail = None, 0

    def erase(x):
        for j, bit in blocks_of[x]:
            h = hits[j] = hits[j] | bit
            if h.bit_count() < t:
                continue
            if grow is None:
                vectors.append(j)
            elif not grow(vectors, j, h):
                return False
        return True

    for a in sets:
        if a[:-1] != head:
            head, same = a[:-1], 0
            while same < len(path) and path[same][0] == head[same]:
                same += 1
            if not fail or same < fail:
                fail = 0
                while len(path) > same:
                    x, mark = path.pop()
                    for j, bit in blocks_of[x]:
                        hits[j] &= ~bit
                    del vectors[mark:]
                for x in head[same:]:
                    path.append((x, len(vectors)))
                    if not erase(x):
                        fail = len(path)
                        break
        if fail:
            yield a, vectors, (), fail
        else:
            yield a, vectors, [(j, h) for j, bit in blocks_of[a[-1]]
                               if (h := hits[j] | bit).bit_count() >= t], 0


def compute_T(design: BlockDesign, k: int) -> int:
    """Worst-case deficit max_A T(A) over all (n-k)-subsets A.

    More than MAX_SUBSETS erasure sets are refused up front.  Every
    relabeling of the disks maps a complete design to itself, so all its
    erasure sets have the same deficit, and it returns closed_form_Tc
    with no walk.  Otherwise every A obeys T(A) <= U = lam_max *
    C(n-k, t), where lam_max is the most blocks on any one t-subset,
    counted from the blocks (t_subset_counts), not taken from
    design.lam.  A block meeting A in e >= t disks adds e - t + 1 <=
    C(e, t), and summed over the blocks C(|B & A|, t) counts (block,
    t-subset of A) pairs, at most lam_max for each of the C(n-k, t)
    t-subsets of A.  So the erasure_deficits walk stops at the first set
    that reaches U, and U = 0 (n-k < t) returns 0 with no walk; T stays
    exact.
    """
    n = design.n
    require_int("k", k)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} must be in 1..{n - 1}")
    deficits = erasure_deficits(design, k)
    if is_complete_design(design):
        return closed_form_Tc(n, k, design.r, design.t)
    lam_max = max(t_subset_counts(design).values(), default=0)
    bound = lam_max * comb(n - k, design.t)
    best = 0
    if bound:
        for width in deficits:
            if width > best:
                best = width
                if best >= bound:
                    break
    return best


def derive_params(design: BlockDesign, k: int) -> CodeParams:
    """Fill CodeParams for a design and reconstruction threshold k."""
    _require_code_design(design)
    d = design.n - design.t + 1
    if not 1 <= k <= d:
        raise ValueError(f"k={k} must satisfy 1 <= k <= d = n-t+1 = {d}")
    T = compute_T(design, k)
    params = _params(design, k, T)
    if params.M < 1:
        raise ValueError(f"parity deficit T = {T} consumes the whole "
                         f"long layer ({params.M + T} slots)")
    return params


def choose_phi(r: int, field: PrimeField) -> tuple[int, ...]:
    """Smallest-lexicographic admissible coefficient vector: r-1 distinct
    nonzero elements, none equal to -1 except possibly the last."""
    q = field.q
    if q < r:
        raise ValueError(f"field GF({q}) cannot supply {r - 1} distinct "
                         f"nonzero coefficients with the -1 exclusion; "
                         f"need q >= r = {r}")
    # distinct and nonzero; only the last, r-1, can reach q-1 = -1
    return tuple(range(1, r))


def build_explicit_steiner_code(params: CodeParams, design: BlockDesign,
                                field: PrimeField) -> CodeSpec:
    """The closed-form code on a Steiner system S(2, r, n), from
    derive_params(design, n-2).

    The single long parity symbol occupies the last slot of the last
    group and carries coefficient phi[x mod (r-1)] for message position
    x; T = 1 and M = n(n-1)/r - 1.  CodeSpec refuses phi on any other
    design or T, but not at another k, where the form is unproved.
    """
    if params.k != design.n - 2:
        raise ValueError(f"closed form needs k = n-2, got k={params.k}")
    return CodeSpec(params=params, field=field, design=design,
                    layout=build_layout(design),
                    phi=choose_phi(design.r, field))


def erasure_system(spec: CodeSpec, a):
    """(kept coordinates, rows) of the dense reference system.

    Every symbol stored on a disk outside the erasure set is one row: the
    short-generator row i of group j applied to the group's long-layer
    symbols, each a message symbol or a row of S, so rows are linear
    forms in the M message symbols and kept[i] names the (group, row) of
    rows[i].  rank(rows) = M exactly when the set is decodable.  This is
    the independent reference that the reduced system is tested against;
    the codec and verify_S do not use it.
    """
    aset = _erasure_set(spec.params.n, a, spec.params.n - spec.params.k)
    p, q = spec.params, spec.field.q
    m, M = p.m, p.M
    s_rows, sg = spec.s_rows, spec.short_gen
    kept, rows = [], []
    for j, block in enumerate(spec.layout.groups):
        for i, disk in enumerate(block):
            if disk in aset:
                continue
            out = [0] * M
            for c, g in enumerate(sg[i]):
                pos = j * m + c
                if pos < M:
                    out[pos] = (out[pos] + g) % q
                elif g:
                    out = [(o + g * v) % q
                           for o, v in zip(out, s_rows[pos - M])]
            kept.append((j, i))
            rows.append(out)
    return kept, rows


@record
class VerifyReport:
    """Outcome of verify_S.  reductions counts kernel vectors tried, up
    to and including the first dependent one of a path or a leaf; pruned
    counts the failing sets decided by a failed shorter prefix."""

    ok: bool
    failures: tuple[tuple[int, ...], ...]
    checked: int
    total: int
    sampled: bool
    reductions: int
    pruned: int


def _serial_only(jobs: int) -> None:
    # jobs remains because callers such as perfbench still pass jobs=1
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: verification runs serially; "
                         f"jobs must be 1")


def verify_S(spec: CodeSpec, jobs: int = 1, sample: int | None = None,
             seed: int = 0) -> VerifyReport:
    """Check that every (n-k)-subset A is decodable.

    A is decodable when [S | -I] is injective on span(K_A).  Walking the
    sets as prefix-tree paths (_walk) builds span(K_A) one kernel vector
    at a time, and each vector's image is reduced against the path's
    echelon images.  An image that reduces to zero fails the prefix and,
    as kernels only grow, every completion of it, which is then listed
    with no more rank work.  A vector's image depends only on its group
    and hit mask, so every image of the call is made up front, in one
    product of the kernel vectors with every group's parity columns.

    The walk yields each set's last disk as (j, hits) pairs, and the
    loop here decides it in its head's quotient space.  At the first
    leaf of a head that has pairs, when the path images span s > 0
    dimensions, annihilator gives the quotient by them gathered: the
    pivot columns, the D = T - s free columns and each free column's s
    coefficients on the pivots, from one reduced echelon form.  The
    head's leaves share it (_leaf_decider).  A leaf's L images are
    independent of the path and of each other exactly when their D
    coordinates are, each made from s + 1 entries of the image, unrolled
    when s = D = 3.  A nonzero determinant (L = D <= 3) or cross product
    (L = 2, D = 3) says so; otherwise, or on a zero, a fraction-free
    elimination of the mapped images finds the first dependent one.
    With s = 0 the images are their own coordinates.  reductions counts
    kernel vectors tried, one for each up to the first dependent one, so
    it reads as if each leaf image were reduced against the path.

    When C(n, n-k) exceeds MAX_SUBSETS, a seeded random sample must be
    requested explicitly via `sample`; the report then marks itself as
    incomplete verification.  A sample of more than half the sets is
    drawn as the sets it leaves out.  A sample, or the sets it stands
    for, may not exceed MAX_SUBSETS either.
    """
    _serial_only(jobs)
    require_int("seed", seed)
    return _verify(spec, sample, seed, False)


def _check_sample(sample: int | None, n: int, miss: int) -> int:
    """C(n, miss), the erasure sets, after refusing a sample below 1 or
    one that would check more than MAX_SUBSETS sets."""
    if sample is not None:
        require_int("sample", sample)
        if sample < 1:
            raise ValueError("sample must be positive")
    total = comb(n, miss) if miss >= 0 else 0
    if sample is not None and min(sample, total) > MAX_SUBSETS:
        raise BudgetExceededError(
            f"a sample of {sample} of the C({n},{miss}) = {total} erasure "
            f"sets exceeds the cap {MAX_SUBSETS}")
    return total


def _verify(spec: CodeSpec, sample: int | None, seed: int,
            first_only: bool) -> VerifyReport:
    """verify_S's report; with first_only the walk stops at the first
    failing set, so only ok is complete."""
    p, q = spec.params, spec.field.q
    miss = p.n - p.k
    total = _check_sample(sample, p.n, miss)
    if total > MAX_SUBSETS and sample is None:
        raise BudgetExceededError(
            f"C({p.n},{miss}) = {total} erasure sets exceed the cap "
            f"{MAX_SUBSETS}; pass sample= to acknowledge incomplete "
            f"verification")
    sets, checked, sampled = None, total, False
    if sample is not None and sample < total:
        # rejection draws slow to coupon-collector speed near the total,
        # so draw the smaller side: the sets checked or the sets left out
        rng = random.Random(seed)
        want = min(sample, total - sample)
        drawn: set[tuple[int, ...]] = set()
        while len(drawn) < want:
            drawn.add(tuple(sorted(rng.sample(range(1, p.n + 1), miss))))
        if want < sample:
            every = itertools.combinations(range(1, p.n + 1), miss)
            sets = (a for a in every if a not in drawn)
        else:
            sets = sorted(drawn)
        checked, sampled = sample, True
    # images[h][j]: [S | -I] on group j's kernel vector at hit mask h: the
    # row lost last's entry in rows 0..m-1 of the map of h without it
    masks = [h for h in range(1 << p.r) if p.t <= h.bit_count() <= miss]
    cols = []
    for h in masks:
        lost = h.bit_length() - 1
        used, _, rowmap, _ = group_decoder(spec, h ^ 1 << lost)
        at = used.index(lost)
        cols.append([row[at] for row in rowmap[:p.m]])
    # one product: the kernel columns (#masks x m) times the groups'
    # parity columns side by side (m x N*T); row i holds mask i's images
    m, T, N = p.m, p.T, p.nstar
    pcols = spec.parity_columns
    flat = _kmul([v for col in cols for v in col], len(masks), m,
                 [v for c in range(m) for j in range(N)
                  for v in pcols[j * m + c]], m, N * T, q)
    images = {h: [flat[(i * N + j) * T:(i * N + j + 1) * T]
                  for j in range(N)] for i, h in enumerate(masks)}
    reductions = 0

    def grow(basis, j, hits):
        nonlocal reductions
        reductions += 1
        return _kadd(basis, images[hits][j], q)

    failures, pruned, head = [], 0, None
    for a, basis, pairs, fail in _walk(spec.design, miss, sets, grow):
        if pairs:
            if a[:-1] != head:
                # the head's leaves share its decider; with no path
                # images the images are their own coordinates
                head = a[:-1]
                first = (_leaf_decider(_annihilator(basis, T, q), q)
                         if basis else lambda vs: _first_dependent(vs, T, q))
            bad = first([images[h][j] for j, h in pairs])
            reductions += len(pairs) if bad is None else bad + 1
            if bad is not None:
                fail = miss
        if fail:
            failures.append(a)
            pruned += fail < miss
            if first_only:
                break
    return VerifyReport(ok=not failures, failures=tuple(failures),
                        checked=checked, total=total, sampled=sampled,
                        reductions=reductions, pruned=pruned)


def _leaf_decider(quotient, q):
    """first(vs): the place of the first of a leaf's images vs, T-wide
    and read mod q, that depends on the span cut out by quotient (the
    gathered form from annihilator) and on the images before it, or None
    when they are all independent.

    The images are mapped to the D quotient coordinates: three on three
    pivots (every non-block head of a T = 6 triple system) by an
    unrolled, unreduced expression, any other shape reduced mod q, as an
    elimination of unreduced coordinates would multiply large integers.
    L = D = 3 images are independent when their determinant is nonzero
    mod q, and L = 2 in D = 3 when their cross product is.  Any other
    shape, and a zero, goes to a fraction-free elimination of the mapped
    images, which alone finds the first dependent one.
    """
    pivots, free, coef = quotient
    if len(pivots) == len(free) == 3:
        (p0, p1, p2), (f0, f1, f2) = pivots, free
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = coef

        def first(vs):
            mapped = []
            for v in vs:
                x, y, z = v[p0], v[p1], v[p2]
                mapped.append((v[f0] + a0 * x + a1 * y + a2 * z,
                               v[f1] + b0 * x + b1 * y + b2 * z,
                               v[f2] + c0 * x + c1 * y + c2 * z))
            return _first_dependent(mapped, 3, q)
        return first

    rows = list(zip(free, coef))

    def first(vs):
        mapped = []
        for v in vs:
            x = [v[i] for i in pivots]
            mapped.append([(v[c] + sum(map(mul, row, x))) % q
                           for c, row in rows])
        return _first_dependent(mapped, len(free), q)
    return first


def _first_dependent(vs, dim, q):
    """The place of the first of the images vs, in dim coordinates read
    mod q, that depends on those before it, or None.  In dim = 3 a
    nonzero determinant (L = 3) or cross product (L = 2) says None at
    once; otherwise a fraction-free elimination of vs in turn finds
    it."""
    if dim == 3 and len(vs) == 3:
        (a, b, c), (d, e, f), (g, h, i) = vs
        if (a * (e * i - f * h) - b * (d * i - f * g)
                + c * (d * h - e * g)) % q:
            return None
    elif dim == 3 and len(vs) == 2:
        (a, b, c), (d, e, f) = vs
        if (b * f - c * e) % q or (c * d - a * f) % q or (a * e - b * d) % q:
            return None
    tried = []
    for at, v in enumerate(vs):
        if not _kadd(tried, v, q):
            return at
    return None


@record
class BuildResult:
    spec: CodeSpec
    attempts: int
    structured: bool


def _check_search(budget: int, sample: int | None, seed: int, n: int,
                  miss: int) -> None:
    require_int("budget", budget)
    require_int("seed", seed)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    _check_sample(sample, n, miss)


def _vandermonde_parity(M: int, T: int, field: PrimeField) -> tuple[int, ...]:
    """Parity block S = V_bot @ V_top^{-1} of the systematic (M+T, M)
    Vandermonde MDS code with nodes 0..M+T-1; needs q >= M+T.

    Row t of S expresses node M+t through nodes 0..M-1, so S[t][c] is
    the Lagrange basis polynomial of node c evaluated at M+t:
    prod_{j != c} (M+t-j) / (c-j).  Every inverse it takes is of an
    integer in 1..M+T-1, read from one table of inverse factorials.
    """
    q, size = field.q, M + T
    fact = [1] * size
    for i in range(1, size):
        fact[i] = fact[i - 1] * i % q
    inv_fact = [1] * size
    inv_fact[-1] = pow(fact[-1], -1, q)
    for i in range(size - 1, 1, -1):
        inv_fact[i - 1] = inv_fact[i] * i % q
    # 1 / i = (i-1)! / i!
    inv = [0] + [fact[i - 1] * inv_fact[i] % q for i in range(1, size)]
    # 1 / prod_{j != c} (c-j) = (-1)^(M-1-c) / (c! (M-1-c)!)
    inv_den = [(-1) ** (M - 1 - c) * inv_fact[c] * inv_fact[M - 1 - c]
               for c in range(M)]
    out = []
    for t in range(T):
        x = M + t
        num = fact[x] * inv_fact[t]     # prod_{j < M} (x - j)
        out.extend(num * inv[x - c] * inv_den[c] % q for c in range(M))
    return tuple(out)


def synthesize_S(params: CodeParams, design: BlockDesign, field: PrimeField,
                 seed: int = 0, budget: int = 8,
                 sample: int | None = None) -> BuildResult:
    """The code spec of the first long-parity matrix S passing verify_S.

    The first candidate is the parity block of a systematic Vandermonde
    MDS code (when q >= M+T); later candidates are seeded uniform draws.
    A candidate's check stops at its first undecodable erasure set.
    A code with T = 0 has no parity to find and returns at once with
    attempts = 0.  Deterministic for a given seed.  Raises
    SynthesisError when the budget is exhausted, quoting the field-size
    existence threshold.
    """
    _check_search(budget, sample, seed, params.n, params.n - params.k)
    M, T = params.M, params.T
    q = field.q
    layout = build_layout(design)
    if T == 0:
        spec = CodeSpec(params=params, field=field, design=design,
                        layout=layout, s_entries=())
        return BuildResult(spec=spec, attempts=0, structured=False)
    rng = random.Random(seed)
    attempts = 0
    use_structured = q >= M + T
    while attempts < budget:
        structured = use_structured and attempts == 0
        if structured:
            entries = _vandermonde_parity(M, T, field)
        else:
            entries = tuple(rng.randrange(q) for _ in range(T * M))
        attempts += 1
        trial = CodeSpec(params=params, field=field, design=design,
                         layout=layout, s_entries=entries)
        if _verify(trial, sample, 0, True).ok:
            return BuildResult(spec=trial, attempts=attempts,
                               structured=structured)
    threshold = comb(params.n, params.k) * T * M
    raise SynthesisError(
        f"no admissible S after {attempts} candidates over GF({q}); the "
        f"existence guarantee needs q > C(n,k)*T*M = {threshold}")


def rank_witness(spec: CodeSpec, a) -> tuple[int, ...]:
    """A 0/1 matrix S under which erasure set a is decodable, as its
    T * M row-major entries (the s_entries of a CodeSpec).

    Existence of a witness for every A shows the determinant polynomial
    behind the random-S argument is not identically zero.  The greedy
    runs in the reduced space of a's heavy groups, in ascending order,
    each with its kernel from group_decoder: let u(x) be the row of the
    stacked kernel basis K_A at long-layer position x of a heavy group.
    Row t of S, a unit vector e_x or zero, adds the row
    u(x) - u(M+t) to [S | -I] K_A, with u(M+t) = 0 when slot M+t is not
    heavy.  Starting from an empty basis, row t is zero when slot M+t is
    heavy and -u(M+t) raises the rank, else the unit vector at the first
    heavy message position that raises it, else zero.  As T >= T(A),
    some row raises nothing; by then every heavy message u(x) is
    spanned, and each row t leaves u(M+t) spanned, so the rows u of all
    heavy positions, which span T(A) dimensions, are spanned at the end.
    The result is self-checked against the dense erasure_system and
    raises WitnessError if it fails.
    """
    p, q = spec.params, spec.field.q
    m, M, T = p.m, p.M, p.T
    aset = _erasure_set(p.n, a, p.n - p.k)
    kernels = [(j, kernel)
               for j, h in sorted(spec.layout.lost_rows(aset).items())
               if (kernel := group_decoder(spec, h)[3])]
    width = sum(len(kernel) for _, kernel in kernels) // m
    u: dict[int, list[int]] = {}
    off = 0
    for j, kernel in kernels:
        f = len(kernel) // m
        for c in range(m):
            row = [0] * width
            row[off:off + f] = kernel[c * f:(c + 1) * f]
            u[j * m + c] = row
        off += f
    basis: list[tuple[int, list[int]]] = []    # (pivot, row), echelon
    heavy_msg = [x for x in u if x < M]
    s = [0] * (T * M)
    for t in range(T):
        own = u.get(M + t)
        for x in ([None] if own is not None else []) + heavy_msg:
            row = [0] * width if own is None else [-v % q for v in own]
            if x is not None:
                row = [(v + w) % q for v, w in zip(row, u[x])]
            if _kadd(basis, row, q):
                if x is not None:
                    s[t * M + x] = 1
                break
    witness = tuple(s)
    probe = CodeSpec(params=p, field=spec.field, design=spec.design,
                     layout=spec.layout, s_entries=witness)
    _, dense = erasure_system(probe, a)
    if _krank([v for row in dense for v in row], len(dense), M, q) != M:
        raise WitnessError(f"witness failed the rank self-check for "
                           f"erasure set {tuple(sorted(a))}")
    return witness


def build_code(design: BlockDesign, k: int, q: int | str = "auto",
               seed: int = 0, budget: int = 8, jobs: int = 1,
               sample: int | None = None) -> BuildResult:
    """Derive parameters once, pick a field, build a verified CodeSpec.

    q="auto" selects the smallest prime exceeding C(n,k)*T*M, the
    threshold above which a valid S is guaranteed to exist.  Steiner
    designs with k = n-2 use the closed-form coefficient construction;
    other codes synthesize and verify an S matrix.  Both constructors
    take the params.  Any other q must be an int: a bool, float or str
    is refused, not converted.
    """
    _serial_only(jobs)
    require_int("k", k)
    _check_search(budget, sample, seed, design.n, design.n - k)
    params = derive_params(design, k)
    if q == "auto":
        threshold = comb(params.n, k) * params.T * params.M
        floor = params.r - 1 if (params.t > 2 and params.m > 1) else 1
        q = next_prime(max(threshold, floor))
    elif type(q) is not int:
        raise ValueError(f"modulus {q!r} is a {type(q).__name__}, not "
                         f"'auto' or an int")
    field = PrimeField(q)
    if params.t == 2 and params.lam == 1 and k == params.n - 2:
        spec = build_explicit_steiner_code(params, design, field)
        return BuildResult(spec=spec, attempts=0, structured=False)
    return synthesize_S(params, design, field, seed=seed, budget=budget,
                        sample=sample)
