"""The code spec: all that encoding, repairing and reading a code need.

A spec (CodeSpec) holds a design S_lambda(t, r, n), its placement
(Layout), the derived parameters (CodeParams) and the long-parity matrix
S.  Each design block hosts one parity group: m = r - t + 1 long-layer
symbols expanded by a short systematic (r, m) MDS code, one symbol per
disk of the block.  The short generator is made from (r, t, q), never
read from a file (short_mds_generator); its top m rows are the identity,
so a group's rows 0..m-1 are its long-layer column.  group_decoder,
the one rule for reads, repairs, rank_witness and verify_S, takes a
group's lost-row mask to its used rows (the lowest m held), surplus,
row map and kernel basis, once per spec and mask.  Finding S and proving
that it decodes is construction's job; nothing here verifies, so codec
and storesim import only this module.
"""

from __future__ import annotations

import json
from functools import cached_property
from operator import mul

from ._kernel import mat_solve as _ksolve
from ._record import record, require_int
from .designs import (BlockDesign, json_field, json_int, json_int_rows,
                      load_json_file, require_design)
from .ffield import PrimeField


@record
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


@record
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

    @cached_property
    def _columns_by_disk(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {disk: tuple(zip(*slots))
                for disk, slots in self._by_disk.items()}

    def disk_columns(self, disk: int) -> tuple[tuple[int, ...], ...]:
        """disk_slots as two columns: the groups, then the rows."""
        return self._columns_by_disk.get(disk, ((), ()))

    def lost_rows(self, disks) -> dict[int, int]:
        """Each group with a row on one of disks, to the bit mask of its
        rows there."""
        lost: dict[int, int] = {}
        for x in disks:
            for j, i in self.disk_slots(x):
                lost[j] = lost.get(j, 0) | 1 << i
        return lost


def build_layout(design: BlockDesign) -> Layout:
    """Deterministic placement: row i of group j goes to the i-th
    smallest disk of block j."""
    return Layout(groups=design.blocks)


def _require_code_design(design: BlockDesign) -> None:
    """Refuse t = 1 and a block list that is not an S_lam(t, r, n), for
    derive_params and a loaded CodeSpec alike: a code's parameters hold
    only on a design."""
    if design.t < 2:
        raise ValueError("design strength t must be at least 2; t=1 would "
                         "require all n disks as repair helpers")
    require_design(design)


def _params(design: BlockDesign, k: int, T: int) -> CodeParams:
    """CodeParams of a design, threshold k and long-layer deficit T."""
    n, t, r, lam = design.n, design.t, design.r, design.lam
    alpha, nstar, m = design.replication, design.num_blocks, r - t + 1
    return CodeParams(n=n, k=k, d=n - t + 1, t=t, r=r, lam=lam,
                      alpha=alpha, beta=lam if t == 2 else None,
                      gamma=m * alpha, M=m * nstar - T, T=T, nstar=nstar)


def short_mds_generator(r: int, t: int,
                        field: PrimeField) -> tuple[tuple[int, ...], ...]:
    """Systematic r x m generator of the short (r, m) MDS code, m = r-t+1,
    as r row tuples.

    The top m rows are the identity.  For t = 2 the single parity row is
    all ones; for m = 1 the code is repetition; otherwise the parity
    rows form the Cauchy block 1 / (x_i - y_c) on nodes x_i = m..r-1
    against y_c = 0..m-1, which needs q >= r.  Each is MDS: any m rows
    are invertible.  If s of them are identity rows, their determinant
    is, up to sign, that of the other m - s rows on the m - s columns
    the identity rows miss.  For t = 2 or m = 1 that block is empty or
    a single 1; otherwise it is a square submatrix of a Cauchy matrix
    whose nodes, all below q, are distinct, so it is nonsingular
    (MacWilliams and Sloane, The Theory of Error-Correcting Codes,
    ch. 11).  So nothing is ranked here; a tier-1 test ranks every
    m-row choice for 2 <= t <= r <= 12 over two fields.
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
        for i in range(t - 1):
            rows.append(tuple(pow(m + i - c, -1, q) for c in range(m)))
    return tuple(rows)


@record
class CodeSpec:
    """Immutable, hashable description of one concrete code.

    The long-layer parity matrix S is stored either as an explicit
    coefficient vector phi (Steiner systems with k = n-2, where S is the
    single row that cycles phi across message positions) or as raw
    entries.  T = 0 codes carry an empty entry tuple.  A list of either
    becomes a tuple.
    """

    params: CodeParams
    field: PrimeField
    design: BlockDesign
    layout: Layout
    phi: tuple[int, ...] | None = None
    s_entries: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("phi", "s_entries"):
            if type(getattr(self, name)) is list:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        p, q = self.params, self.field.q
        _require_code_design(self.design)
        want = _params(self.design, p.k, p.T)
        if not 1 <= p.k <= want.d:
            raise ValueError("params.k out of range")
        if p.T < 0 or want.M < 1:
            raise ValueError("params.T out of range")
        if p != want:
            field = next(f for f in CodeParams.__annotations__
                         if getattr(p, f) != getattr(want, f))
            raise ValueError(f"params.{field} does not match the design")
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
                if type(c) is not int or not 1 <= c < q:
                    require_int("phi coefficient", c)
                    raise ValueError("phi coefficients must be nonzero "
                                     "field elements")
                if i < p.r - 2 and (c + 1) % q == 0:
                    raise ValueError("phi coefficients before the last must "
                                     "not equal -1")
        else:
            if len(self.s_entries) != p.T * p.M:
                raise ValueError(f"s_entries needs {p.T * p.M} values")
            s = self.s_entries
            if s and (set(map(type, s)) != {int} or min(s) < 0
                      or max(s) >= q):
                for v in s:
                    require_int("s_entries entry", v)
                raise ValueError("s_entries must be reduced field elements")
        # every encode and verify makes the short generator, so making it
        # here refuses a field too small for it at no extra cost
        self.short_gen

    @cached_property
    def short_gen(self) -> tuple[tuple[int, ...], ...]:
        """Short-layer generator: r row tuples of m coefficients."""
        return short_mds_generator(self.params.r, self.params.t, self.field)

    @cached_property
    def group_decoders(self) -> dict[int, tuple]:
        """group_decoder's table: lost-row mask to its result."""
        return {}

    @cached_property
    def read_steps(self) -> dict[int, tuple]:
        """codec.reconstruct's table: lost-row mask of a group that lost
        one of its rows 0..m-1 to its read step (the used rows' offsets,
        kernel and map rows, from group_decoder); at most 2^r entries."""
        return {}

    @cached_property
    def share_templates(self) -> dict[int, tuple]:
        """codec._template's table: disk id to the disk's share-file
        template; at most n entries."""
        return {}

    @cached_property
    def repair_plans(self) -> dict[tuple, tuple]:
        """codec._repair_plan's table: (failed disk, sorted helper disks)
        to the repair's plan; at most one entry per (failed disk, helper
        set) repaired."""
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

    @cached_property
    def packed_checks(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """parity_columns packed into lanes: _pack_lanes's (mask, shifts,
        columns) for the T checks, check t in lane t; codec's encode and
        reconstruct evaluate all T checks with one sum of products."""
        return _pack_lanes(self.parity_columns, self.field.q)

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
                   s_entries=(_decimals(doc, "s")
                              if phi is None or "s" in doc else None))

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


def _pack_lanes(columns, q: int) -> tuple[int, tuple[int, ...],
                                          tuple[int, ...]]:
    """(mask, shifts, packed): each of the N columns of a T x N matrix
    over GF(q), entry t in lane t of one int, lanes L bits apart.

    With L = 2 bits(q-1) + bits(N), the lanes of sum(map(mul, x,
    packed)), (total >> shifts[t]) & mask, are the exact row sums
    sum_x a[t][x] x_x for any x of at most N entries in 0..q-1.  Proof:
    every product a[t][x] x_x is nonnegative and at most (q-1)^2 <
    2^(2 bits(q-1)), and there are at most N < 2^bits(N) of them, so a
    lane's sum is below 2^L.  Shifting and adding nonnegative lanes that
    each stay below 2^L never carries into the next lane, so the total
    is sum_t row_sum_t * 2^(t L), and each lane reads back exactly.
    T = 0 gives no shifts."""
    T = len(columns[0])
    width = 2 * (q - 1).bit_length() + len(columns).bit_length()
    shifts = tuple(range(0, T * width, width))
    return ((1 << width) - 1, shifts,
            tuple(sum(c << s for c, s in zip(col, shifts))
                  for col in columns))


def _decimals(doc, key: str) -> tuple[int, ...]:
    """A code spec field of field elements written as decimal strings."""
    value = json_field(doc, key, "code spec")
    if not (isinstance(value, list)
            and all(isinstance(v, str) and v.isdecimal() for v in value)):
        raise ValueError(f"code spec JSON field {key!r} must be a list of "
                         f"decimal strings")
    return tuple(int(v) for v in value)


def group_decoder(spec: CodeSpec, lost_mask: int) -> tuple:
    """(used, surplus, map, kernel) of a parity group that lost the
    short-layer rows set in lost_mask, once per spec and mask (at most
    2^r of them, in spec.group_decoders).

    used, the group's lowest m held rows, and surplus, the rest, are row
    tuples; with s < m used rows the group is heavy, and the first
    f = m - s systematic rows not used are free.  Used and free rows of
    the MDS generator are m distinct rows, so they invert.  map, the
    group's row map, has per row i the s coefficients taking the used
    symbols to row i with the free symbols 0: generator row i times the
    inverse's used columns.  kernel, the rest of the inverse, is the
    flat m x f kernel basis, column b having free symbol b equal to 1.
    Rows 0..m-1 map to the short generator itself, with no inversion.
    """
    entry = spec.group_decoders.get(lost_mask)
    if entry is None:
        m, q, sg = spec.params.m, spec.field.q, spec.short_gen
        held = [i for i in range(spec.params.r) if not lost_mask >> i & 1]
        used, surplus = tuple(held[:m]), tuple(held[m:])
        entry = used, surplus, sg, ()
        if lost_mask & (1 << m) - 1:
            s = len(used)
            free = [i for i in range(m) if i not in used][:m - s]
            eye = [int(a == b) for a in range(m) for b in range(m)]
            _, inv = _ksolve([v for i in (*used, *free) for v in sg[i]],
                             m, m, eye, m, q)
            cols = [inv[u::m] for u in range(s)]
            entry = (used, surplus,
                     tuple(tuple(sum(map(mul, g, col)) % q for col in cols)
                           for g in sg),
                     tuple(v for c in range(m)
                           for v in inv[c * m + s:(c + 1) * m]))
        spec.group_decoders[lost_mask] = entry
    return entry
