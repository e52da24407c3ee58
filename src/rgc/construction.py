"""Two-layer erasure code construction driven by a block design.

A code is assembled from a design S_lambda(t, r, n) and a reconstruction
threshold k.  Each design block hosts one parity group of r stored
symbols: m = r - t + 1 long-layer symbols expanded by a short systematic
(r, m) MDS code, one symbol per disk of the block.  Filling the m * N
long-layer slots column by column, the first M hold message symbols and
the last T hold parity symbols S @ d, sized so that any n - k disk
erasures still leave a rank-M system.  T is the worst case, over erasure
sets A, of the symbol deficit beyond what the short layer absorbs.

Every block shares one short generator: short_layer is the one product
of it with group columns, and group_decoder inverts, once per spec and
held-row tuple, a group's held rows plus its free systematic rows.
A group whose block meets an erasure set A in e >= t disks keeps r - e
independent short-generator rows, so its long-layer column is known up
to a kernel of dimension e - t + 1 (group_decoder); every other group
is decodable from its own rows.  Stacking the heavy groups' kernels
K_A, the T long-layer parity checks give the T x T(A) matrix [S | -I] K_A,
and A is decodable exactly when it has rank T(A).  verify_S walks the
erasure sets as paths of their prefix tree (_walk): one more erased disk
only grows the kernels of the blocks that contain it, so span(K_A) is
built one vector at a time, and an image under [S | -I] that depends on
the earlier ones fails every completion of the prefix.  The reduced
system drives decoding in codec and rank_witness, which builds, for one
erasure set, a 0/1 matrix S that satisfies the condition, so the generic
determinant argument for random S is checkable per set.  erasure_system
is the independent dense reference: every symbol stored on a surviving
disk as a linear form in the message.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import cached_property
from math import comb

from ._kernel import echelon_add as _kadd
from ._kernel import mat_mul as _kmul
from ._kernel import mat_rank as _krank
from ._kernel import mat_solve as _ksolve
from .designs import (BlockDesign, closed_form_Tc, is_complete_design,
                      json_field, json_int, json_int_rows, load_json_file)
from .ffield import PrimeField, next_prime


# Cap on the erasure sets that compute_T and verify_S enumerate.
MAX_SUBSETS = 10 ** 6


class BudgetExceededError(ValueError):
    """A combinatorial enumeration would exceed its configured cap."""


class SynthesisError(ValueError):
    """No admissible long-parity matrix found within the attempt budget."""


class WitnessError(RuntimeError):
    """Internal failure while building a rank witness; indicates a bug."""


@dataclass(frozen=True)
class CodeParams:
    """Derived code parameters for a design plus threshold k.

    alpha is the per-disk symbol count, beta the per-helper repair
    transfer (defined only when t = 2), gamma the total repair transfer,
    M the message length, T the long-layer parity count and nstar the
    number of parity groups.
    """

    n: int
    k: int
    d: int
    t: int
    r: int
    lam: int
    alpha: int
    beta: int | None
    gamma: int
    M: int
    T: int
    nstar: int

    @property
    def m(self) -> int:
        """Long-layer symbols per parity group."""
        return self.r - self.t + 1


@dataclass(frozen=True)
class Layout:
    """Placement of parity-group rows onto disks.

    groups[j][i] is the disk holding row i of group j (0-based group and
    row indices, 1-based disk ids).  Within a disk, slots are ordered by
    group index.
    """

    groups: tuple[tuple[int, ...], ...]

    @cached_property
    def _by_disk(self) -> dict[int, tuple[tuple[int, int], ...]]:
        inv: dict[int, list[tuple[int, int]]] = {}
        for j, grp in enumerate(self.groups):
            for i, disk in enumerate(grp):
                inv.setdefault(disk, []).append((j, i))
        return {disk: tuple(sorted(pairs)) for disk, pairs in inv.items()}

    def disk_slots(self, disk: int) -> tuple[tuple[int, int], ...]:
        """All (group, row) pairs stored on a disk, in slot order."""
        return self._by_disk.get(disk, ())


def build_layout(design: BlockDesign) -> Layout:
    """Deterministic placement: row i of group j goes to the i-th
    smallest disk of block j."""
    return Layout(groups=design.blocks)


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
    """Iterator over T(A) for every (n-k)-subset A, in lexicographic order.

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
    sets = itertools.combinations(range(1, n + 1), miss)
    return (width for _, width, _ in _walk(design, sets))


def _walk(design: BlockDesign, sets, grow=None):
    """Yield (a, width, fail) for each erasure set a of `sets` (ascending
    tuples in lexicographic order), walked as paths of the prefix tree.

    The path erases every disk of a set but the last, which is only
    tried, keeping what it shares with the previous set.  Erasing disk x
    sets bit i in the hit mask of each block holding x as row i.  A block
    with e >= t erased rows gains one kernel vector, for its highest
    erased row; grow(vectors, j, hits) appends it, or returns False when
    it depends on the path's vectors (without grow, vectors are only
    counted).  width counts the vectors, T(A) unless a failed; fail is 0
    or the length of the failed prefix, and every completion of a failed
    prefix fails with no more work.
    """
    t = design.t
    blocks_of = [[] for _ in range(design.n + 1)]
    for j, block in enumerate(design.blocks):
        for i, x in enumerate(block):
            blocks_of[x].append((j, 1 << i))
    hits = [0] * design.num_blocks
    path, vectors = [], []      # path: (disk, len(vectors) before it)
    head, fail = None, 0

    def erase(x, keep):
        for j, bit in blocks_of[x]:
            h = hits[j] | bit
            if keep:
                hits[j] = h
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
                    if not erase(x, True):
                        fail = len(path)
                        break
        if fail:
            yield a, len(vectors), fail
            continue
        mark = len(vectors)
        ok = erase(a[-1], False)
        yield a, len(vectors), 0 if ok else len(a)
        del vectors[mark:]


def compute_T(design: BlockDesign, k: int) -> int:
    """Worst-case deficit max_A T(A) over all (n-k)-subsets, exhaustive.

    For complete designs the result is cross-checked against the closed
    form closed_form_Tc; a mismatch raises.
    """
    n = design.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} must be in 1..{n - 1}")
    best = max(erasure_deficits(design, k))
    if is_complete_design(design):
        formula = closed_form_Tc(n, k, design.r, design.t)
        if best != formula:
            raise ValueError(
                f"exhaustive T = {best} disagrees with the complete-design "
                f"closed form {formula}")
    return best


def derive_params(design: BlockDesign, k: int) -> CodeParams:
    """Fill CodeParams for a design and reconstruction threshold k."""
    n, t, r, lam = design.n, design.t, design.r, design.lam
    if t < 2:
        raise ValueError("design strength t must be at least 2; t=1 would "
                         "require all n disks as repair helpers")
    d = n - t + 1
    if not 1 <= k <= d:
        raise ValueError(f"k={k} must satisfy 1 <= k <= d = n-t+1 = {d}")
    alpha = design.replication
    nstar = design.num_blocks
    m = r - t + 1
    T = compute_T(design, k)
    M = m * nstar - T
    if M < 1:
        raise ValueError(f"parity deficit T = {T} consumes the whole "
                         f"long layer ({m * nstar} slots)")
    return CodeParams(n=n, k=k, d=d, t=t, r=r, lam=lam, alpha=alpha,
                      beta=lam if t == 2 else None, gamma=m * alpha,
                      M=M, T=T, nstar=nstar)


def short_mds_generator(r: int, t: int,
                        field: PrimeField) -> tuple[tuple[int, ...], ...]:
    """Systematic r x m generator of the short (r, m) MDS code, m = r-t+1,
    as r row tuples.

    The top m rows are the identity.  For t = 2 the single parity row is
    all ones; for m = 1 the code is repetition; otherwise the parity
    rows form a Cauchy block, which needs q >= r.  The MDS property is
    verified exhaustively for r <= 12.
    """
    if not 2 <= t <= r:
        raise ValueError(f"need 2 <= t <= r, got t={t} r={r}")
    m = r - t + 1
    q = field.q
    rows = [tuple(1 if c == i else 0 for c in range(m)) for i in range(m)]
    if t == 2:
        rows.append((1,) * m)
    elif m == 1:
        rows.extend([(1,)] * (t - 1))
    else:
        if q < r:
            raise ValueError(
                f"field GF({q}) too small for a Cauchy parity block; "
                f"need q >= r = {r}")
        # nodes m..r-1 vs 0..m-1 are distinct mod q, so every minor of
        # the Cauchy block is invertible
        for i in range(t - 1):
            rows.append(tuple(pow(m + i - c, -1, q) for c in range(m)))
    if r <= 12:
        for sub in itertools.combinations(range(r), m):
            picked = [rows[i] for i in sub]
            flat = [v for row in picked for v in row]
            if _krank(flat, m, m, q) != m:
                raise ValueError(f"short generator is not MDS over GF({q}); "
                                 f"rows {sub} are singular")
    return tuple(rows)


@dataclass(frozen=True)
class CodeSpec:
    """Immutable, hashable description of one concrete code.

    The long-layer parity matrix S is stored either as an explicit
    coefficient vector phi (Steiner systems with k = n-2, where S is the
    single row that cycles phi across message positions) or as raw
    entries.  T = 0 codes carry an empty entry tuple.
    """

    params: CodeParams
    field: PrimeField
    design: BlockDesign
    layout: Layout
    phi: tuple[int, ...] | None = None
    s_entries: tuple[int, ...] | None = None

    def __post_init__(self):
        p, q = self.params, self.field.q
        if p.d != p.n - p.t + 1 or p.m < 1:
            raise ValueError("inconsistent (n, t, d) in params")
        if (p.n, p.t, p.r, p.lam) != (self.design.n, self.design.t,
                                      self.design.r, self.design.lam):
            raise ValueError("params do not match the design")
        if p.nstar != self.design.num_blocks:
            raise ValueError("params.nstar does not match the design")
        if p.alpha != self.design.replication:
            raise ValueError("params.alpha does not match the design")
        if p.beta != (p.lam if p.t == 2 else None):
            raise ValueError("params.beta is inconsistent")
        if p.gamma != p.m * p.alpha:
            raise ValueError("params.gamma is inconsistent")
        if p.M != p.m * p.nstar - p.T or p.T < 0 or p.M < 1:
            raise ValueError("params (M, T) are inconsistent")
        if not 1 <= p.k <= p.d:
            raise ValueError("params.k out of range")
        if self.layout != build_layout(self.design):
            raise ValueError("layout does not match the design placement")
        if (self.phi is None) == (self.s_entries is None):
            raise ValueError("exactly one of phi and s_entries is required")
        if self.phi is not None:
            if p.t != 2 or p.lam != 1 or p.T != 1:
                raise ValueError("phi form requires a Steiner design with "
                                 "T = 1")
            if len(self.phi) != p.r - 1:
                raise ValueError(f"phi needs {p.r - 1} coefficients")
            if len(set(self.phi)) != len(self.phi):
                raise ValueError("phi coefficients must be distinct")
            for i, c in enumerate(self.phi):
                if not 1 <= c < q:
                    raise ValueError("phi coefficients must be nonzero "
                                     "field elements")
                if i < p.r - 2 and (c + 1) % q == 0:
                    raise ValueError("phi coefficients before the last must "
                                     "not equal -1")
        else:
            if len(self.s_entries) != p.T * p.M:
                raise ValueError(f"s_entries needs {p.T * p.M} values")
            if any(not 0 <= v < q for v in self.s_entries):
                raise ValueError("s_entries must be reduced field elements")

    @cached_property
    def short_gen(self) -> tuple[tuple[int, ...], ...]:
        """Short-layer generator: r row tuples of m coefficients."""
        return short_mds_generator(self.params.r, self.params.t, self.field)

    @cached_property
    def group_decoders(self) -> dict[tuple[int, ...], tuple]:
        """group_decoder's table: held-row tuple to (solve, kernel)."""
        return {}

    @cached_property
    def s_rows(self) -> tuple[tuple[int, ...], ...]:
        """Long-layer parity matrix S: T row tuples of M coefficients."""
        p = self.params
        if self.phi is not None:
            # message position x contributes with coefficient
            # phi[x mod m]: positions cycle through the group rows
            return (tuple(self.phi[x % p.m] for x in range(p.M)),)
        s = self.s_entries
        return tuple(s[t * p.M:(t + 1) * p.M] for t in range(p.T))

    @cached_property
    def parity_columns(self) -> tuple[tuple[int, ...], ...]:
        """Columns of the T x (M + T) parity checks [S | -I], one T-tuple
        per long-layer position."""
        p, q = self.params, self.field.q
        rows = self.s_rows
        return (tuple(tuple(row[x] for row in rows) for x in range(p.M))
                + tuple(tuple(q - 1 if t == u else 0 for t in range(p.T))
                        for u in range(p.T)))

    def to_json(self) -> str:
        """Canonical JSON; round-trips bit-exactly through from_json."""
        p = self.params
        doc = {
            "q": self.field.q,
            "params": {"n": p.n, "k": p.k, "d": p.d, "t": p.t, "r": p.r,
                       "lambda": p.lam, "alpha": p.alpha, "beta": p.beta,
                       "gamma": p.gamma, "M": p.M, "T": p.T,
                       "nstar": p.nstar},
            "design": json.loads(self.design.to_json()),
            "layout": [list(g) for g in self.layout.groups],
        }
        if self.phi is not None:
            doc["phi"] = [str(c) for c in self.phi]
        else:
            doc["s"] = [str(v) for v in self.s_entries]
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> CodeSpec:
        """Parse canonical JSON; ValueError names a missing or bad field."""
        doc = json.loads(text)
        pd = json_field(doc, "params", "code spec")
        ints = {key: json_int(pd, key, "code spec params") for key in (
            "n", "k", "d", "t", "r", "lambda", "alpha", "gamma", "M", "T",
            "nstar")}
        beta = json_field(pd, "beta", "code spec params")
        if beta is not None:
            beta = json_int(pd, "beta", "code spec params")
        phi = _decimals(doc, "phi") if "phi" in doc else None
        return cls(params=CodeParams(lam=ints.pop("lambda"), beta=beta,
                                     **ints),
                   field=PrimeField(json_int(doc, "q", "code spec")),
                   design=BlockDesign.from_doc(
                       json_field(doc, "design", "code spec")),
                   layout=Layout(groups=json_int_rows(doc, "layout",
                                                      "code spec")),
                   phi=phi,
                   s_entries=_decimals(doc, "s") if phi is None else None)

    @cached_property
    def spec_hash(self) -> bytes:
        """32-byte digest of the canonical JSON; embedded in share files."""
        import hashlib  # only share files need it; a build does not
        return hashlib.sha256(self.to_json().encode("utf-8")).digest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> CodeSpec:
        return load_json_file(path, "code spec", cls.from_json)


def _decimals(doc, key: str) -> tuple[int, ...]:
    """A code spec field of field elements written as decimal strings."""
    value = json_field(doc, key, "code spec")
    if not (isinstance(value, list)
            and all(isinstance(v, str) and v.isdecimal() for v in value)):
        raise ValueError(f"code spec JSON field {key!r} must be a list of "
                         f"decimal strings")
    return tuple(int(v) for v in value)


def choose_phi(r: int, field: PrimeField) -> tuple[int, ...]:
    """Smallest-lexicographic admissible coefficient vector: r-1 distinct
    nonzero elements, none equal to -1 except possibly the last."""
    q = field.q
    if q < r:
        raise ValueError(f"field GF({q}) cannot supply {r - 1} distinct "
                         f"nonzero coefficients with the -1 exclusion; "
                         f"need q >= r = {r}")
    phi: list[int] = []
    used: set[int] = set()
    for pos in range(1, r):
        last = pos == r - 1
        pick = next((c for c in range(1, q)
                     if c not in used and (last or (c + 1) % q != 0)), None)
        if pick is None:
            raise ValueError(f"no admissible coefficient assignment in "
                             f"GF({q}) for block size {r}")
        phi.append(pick)
        used.add(pick)
    return tuple(phi)


def build_explicit_steiner_code(design: BlockDesign,
                                field: PrimeField) -> CodeSpec:
    """The closed-form code on a Steiner system S(2, r, n) with k = n-2.

    The single long parity symbol occupies the last slot of the last
    group and carries coefficient phi[x mod (r-1)] for message position
    x; T = 1 and M = n(n-1)/r - 1.
    """
    if design.t != 2 or design.lam != 1:
        raise ValueError("explicit construction requires a Steiner system "
                         "S(2, r, n) with lambda = 1")
    params = derive_params(design, design.n - 2)
    if params.T != 1:
        raise WitnessError("Steiner system with n-k = 2 must have T = 1")
    phi = choose_phi(design.r, field)
    return CodeSpec(params=params, field=field, design=design,
                    layout=build_layout(design), phi=phi)


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


def group_decoder(spec: CodeSpec, rows):
    """(solve, kernel) of a parity group holding the short-layer rows
    `rows` (ascending, at most m of them).

    With s held rows, the first f = m - s systematic rows not held are
    the free positions.  Held and free generator rows are m distinct rows
    of the MDS generator, so they invert; the inverse splits into solve,
    the flat m x s matrix taking the held symbols to the group column
    with the free symbols 0, and kernel, the flat m x f kernel basis of
    the held rows, column b having free symbol b equal to 1.  Each row
    tuple is inverted once per spec (spec.group_decoders).
    """
    entry = spec.group_decoders.get(rows)
    if entry is None:
        m, s, q, sg = spec.params.m, len(rows), spec.field.q, spec.short_gen
        free = [i for i in range(m) if i not in rows][:m - s]
        eye = [int(a == b) for a in range(m) for b in range(m)]
        rank, inv = _ksolve([v for i in (*rows, *free) for v in sg[i]],
                            m, m, eye, m, q)
        if rank < m:
            raise RuntimeError("short-layer generator rows are singular; "
                               "the stored spec is corrupt")
        entry = spec.group_decoders[rows] = (
            tuple(v for c in range(m) for v in inv[c * m:c * m + s]),
            tuple(v for c in range(m) for v in inv[c * m + s:(c + 1) * m]))
    return entry


def short_layer(spec: CodeSpec, columns) -> list[int]:
    """The short layer applied to groups' long-layer columns (m-tuples):
    the flat r x len(columns) matrix whose entry (i, g) is the symbol of
    row i of group columns[g]."""
    p = spec.params
    return _kmul([v for row in spec.short_gen for v in row], p.r, p.m,
                 [col[c] for c in range(p.m) for col in columns], p.m,
                 len(columns), spec.field.q)


def parity_block(spec: CodeSpec, j: int, kernel) -> list[tuple[int, ...]]:
    """Group j's T x f block of [S | -I] K_A: the long-layer parity checks
    applied to the group's flat m x f kernel basis, as f column tuples."""
    m, q, T = spec.params.m, spec.field.q, spec.params.T
    pcols = spec.parity_columns[j * m:(j + 1) * m]
    f = len(kernel) // m
    out = []
    for b in range(f):
        acc = [0] * T
        for c in range(m):
            k = kernel[c * f + b]
            if k:
                acc = [x + k * y for x, y in zip(acc, pcols[c])]
        out.append(tuple(x % q for x in acc))
    return out


def stack_blocks(blocks, T: int) -> list[int]:
    """The flat T x T(A) reduced matrix of the heavy groups' parity
    blocks, side by side in the given order."""
    cols = [col for blk in blocks for col in blk]
    return [col[t] for t in range(T) for col in cols]


def reduced_system(spec: CodeSpec, a):
    """(kernels, matrix, width) of the reduced system of erasure set a.

    kernels maps each heavy group, one whose block meets a in e >= t
    disks, in group order, to the flat m x f kernel basis of its
    surviving short-generator rows (f = e - t + 1; see group_decoder).
    matrix is the flat T x width matrix [S | -I] K_A, width = T(A), with
    columns in the order of kernels; a is decodable exactly when its
    rank is width.
    """
    aset = _erasure_set(spec.params.n, a, spec.params.n - spec.params.k)
    kernels, blocks = {}, []
    for j, group in enumerate(spec.layout.groups):
        rows = tuple(i for i, disk in enumerate(group) if disk not in aset)
        if len(group) - len(rows) >= spec.params.t:
            _, kernels[j] = group_decoder(spec, rows)
            blocks.append(parity_block(spec, j, kernels[j]))
    return (kernels, stack_blocks(blocks, spec.params.T),
            sum(map(len, blocks)))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of verify_S.  reductions counts the kernel vectors reduced,
    pruned the failing sets decided by a failed shorter prefix."""

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
    and hit mask, so every image of the call is made up front, one
    parity block per group.

    When C(n, n-k) exceeds MAX_SUBSETS, a seeded random sample must be
    requested explicitly via `sample`; the report then marks itself as
    incomplete verification.
    """
    _serial_only(jobs)
    p, q = spec.params, spec.field.q
    miss = p.n - p.k
    total = comb(p.n, miss)
    if sample is not None and sample < 1:
        raise ValueError("sample must be positive")
    if total > MAX_SUBSETS and sample is None:
        raise BudgetExceededError(
            f"C({p.n},{miss}) = {total} erasure sets exceed the cap "
            f"{MAX_SUBSETS}; pass sample= to acknowledge incomplete "
            f"verification")
    if sample is not None and sample < total:
        rng = random.Random(seed)
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < sample:
            chosen.add(tuple(sorted(rng.sample(range(1, p.n + 1), miss))))
        sets = sorted(chosen)
        checked, sampled = len(sets), True
    else:
        sets = itertools.combinations(range(1, p.n + 1), miss)
        checked, sampled = total, False
    # images[h][j]: [S | -I] on group j's kernel vector at hit mask h, the
    # solve column of the row lost last (zero on held rows, one on it)
    masks = [h for h in range(1 << p.r) if p.t <= h.bit_count() <= miss]
    cols = []
    for h in masks:
        lost = h.bit_length() - 1
        rows = tuple(i for i in range(p.r) if i == lost or not h >> i & 1)
        solve, _ = group_decoder(spec, rows)
        cols.append(solve[rows.index(lost)::len(rows)])
    kernel = [v for row in zip(*cols) for v in row]    # flat m x #masks
    blocks = [parity_block(spec, j, kernel) for j in range(p.nstar)]
    images = {h: [blk[i] for blk in blocks] for i, h in enumerate(masks)}
    reductions = 0

    def grow(basis, j, hits):
        nonlocal reductions
        reductions += 1
        return _kadd(basis, images[hits][j], q)

    failures, pruned = [], 0
    for a, _, fail in _walk(spec.design, sets, grow):
        if fail:
            failures.append(a)
            pruned += fail < miss
    return VerifyReport(ok=not failures, failures=tuple(failures),
                        checked=checked, total=total, sampled=sampled,
                        reductions=reductions, pruned=pruned)


@dataclass(frozen=True)
class BuildResult:
    spec: CodeSpec
    attempts: int
    structured: bool


def _check_search(budget: int, sample: int | None) -> None:
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if sample is not None and sample < 1:
        raise ValueError("sample must be positive")


def _vandermonde_parity(M: int, T: int, field: PrimeField) -> tuple[int, ...]:
    """Parity block S = V_bot @ V_top^{-1} of the systematic (M+T, M)
    Vandermonde MDS code with nodes 0..M+T-1; needs q >= M+T.

    Row t of S expresses node M+t through nodes 0..M-1, so S[t][c] is
    the Lagrange basis polynomial of node c evaluated at M+t:
    prod_{j != c} (M+t-j) / (c-j).
    """
    q = field.q
    fact = [1] * (M + T)
    for i in range(1, M + T):
        fact[i] = fact[i - 1] * i % q
    # 1 / prod_{j != c} (c-j) = (-1)^(M-1-c) / (c! (M-1-c)!)
    inv_den = [(-1) ** (M - 1 - c) * pow(fact[c] * fact[M - 1 - c], -1, q)
               for c in range(M)]
    out = []
    for t in range(T):
        x = M + t
        num = fact[x] * pow(fact[t], -1, q)     # prod_{j < M} (x - j)
        out.extend(num * pow(x - c, -1, q) * inv_den[c] % q
                   for c in range(M))
    return tuple(out)


def synthesize_S(params: CodeParams, design: BlockDesign, field: PrimeField,
                 seed: int = 0, budget: int = 8,
                 sample: int | None = None) -> BuildResult:
    """The code spec of the first long-parity matrix S passing verify_S.

    The first candidate is the parity block of a systematic Vandermonde
    MDS code (when q >= M+T); later candidates are seeded uniform draws.
    A code with T = 0 has no parity to find and returns at once with
    attempts = 0.  Deterministic for a given seed.  Raises
    SynthesisError when the budget is exhausted, quoting the field-size
    existence threshold.
    """
    _check_search(budget, sample)
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
        report = verify_S(trial, sample=sample)
        if report.ok:
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
    runs in the reduced space of reduced_system: let u(x) be the row of
    the stacked kernel basis K_A at long-layer position x of a heavy
    group.  Row t of S, a unit vector e_x or zero, adds the row
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
    kernels, _, width = reduced_system(spec, a)
    u: dict[int, list[int]] = {}
    off = 0
    for j, kernel in kernels.items():
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


def build_code(design: BlockDesign, k: int, q: int | str | None = "auto",
               seed: int = 0, budget: int = 8, jobs: int = 1,
               sample: int | None = None) -> BuildResult:
    """Derive parameters, pick a field, and produce a verified CodeSpec.

    q="auto" selects the smallest prime exceeding C(n,k)*T*M, the
    threshold above which a valid S is guaranteed to exist.  Steiner
    designs with k = n-2 use the closed-form coefficient construction;
    other codes synthesize and verify an S matrix.
    """
    _serial_only(jobs)
    _check_search(budget, sample)
    params = derive_params(design, k)
    if q in (None, "auto"):
        threshold = comb(params.n, k) * params.T * params.M
        floor = params.r - 1 if (params.t > 2 and params.m > 1) else 1
        qv = next_prime(max(threshold, floor))
    else:
        qv = int(q)
    field = PrimeField(qv)
    if params.t == 2 and params.lam == 1 and k == params.n - 2:
        return BuildResult(spec=build_explicit_steiner_code(design, field),
                           attempts=0, structured=False)
    return synthesize_S(params, design, field, seed=seed, budget=budget,
                        sample=sample)
