"""Encoding, repair, and reconstruction for two-layer design codes.

Shares are per-disk symbol lists addressed by (group, row): group j is
the parity group hosted by design block j, row i its position inside
the block.  Encoding expands the message through the long layer
(appending T parity symbols) and then all group columns through the
short layer.  The short code is systematic, so a group's rows 0..m-1
are its long-layer column, copied, and only its parity rows m..r-1 take
a product (construction.short_layer).  Reads and repairs follow the
plan of the held disks (construction.plan): each group uses its lowest
m = r-t+1 held rows and keeps the rest as surplus.  A group using rows
0..m-1 copies them as its column; the group decoder
(construction.group_decoder, an inverse kept per spec and row tuple)
solves any other group's long-layer column from its used rows, up to a
kernel basis when it uses fewer than m.  Repair copies the used rows of
each affected group from any d = n-t+1 other disks, or any helpers
holding m rows of each, and reads the surplus only to cross-check.
Reconstruction runs the group decoder on every group, then one T x T(A)
solve on the heavy groups' kernels (groups using fewer than m rows)
gives the kernel coefficients; its rank decides decodability.
A share file is written and read through its disk's template: the
header, the record prefixes and one struct of all the records, made
once per spec and disk.  A file that does not fit its template exactly
goes to one iter_unpack pass over its whole records, the only code that
names a fault: the first in file order.

A share is checked once, where it enters the library.  A DiskShare
checks a caller's symbols when it is made; check_share checks a share
against a spec and marks it with that spec, and a later check against
the same spec only returns the share's columns.  A share is frozen, so
a mark stays true.  encode and repair make their shares through
_checked_share, which runs neither check: the slots are the layout's
and the values are reduced mod q.  share_from_bytes does the same when
the file fits its template, so its slots are the layout's, and every
value is below q; otherwise it makes a DiskShare and runs check_share,
so the first fault is still named.
"""

from __future__ import annotations

import random
import struct
from itertools import repeat
from operator import add, itemgetter, mul

from ._kernel import mat_mul as _kmul
from ._kernel import mat_solve as _ksolve
from ._record import record, require_int
from .construction import (CodeSpec, group_decoder, parity_block, plan,
                           short_layer)

_setattr = object.__setattr__
_MAGIC = b"RGC1"
# magic, spec digest, disk id, symbol count
_HEADER = struct.Struct("<4s32sII")


class ShareFormatError(ValueError):
    """A share does not match the code spec or is malformed on disk."""


class CorruptionError(ValueError):
    """Share data contradicted itself during a repair or a decode."""


@record
class MessageVector:
    """A length-M message over GF(q)."""

    q: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("modulus must be at least 2")
        values = self.values
        if values and (set(map(type, values)) != {int}
                       or min(values) < 0 or max(values) >= self.q):
            for v in values:
                require_int("message symbol", v)
                if not 0 <= v < self.q:
                    raise ValueError(f"message symbol outside "
                                     f"GF({self.q})")

    @classmethod
    def from_text(cls, q: int, text: str) -> MessageVector:
        """Parse whitespace-separated decimal symbols."""
        try:
            values = tuple(int(tok) for tok in text.split())
        except ValueError:
            raise ValueError("message file must contain whitespace-"
                             "separated decimal integers") from None
        return cls(q=q, values=values)

    def to_text(self) -> str:
        return " ".join(str(v) for v in self.values) + "\n"

    @classmethod
    def random(cls, q: int, length: int, seed: int = 0) -> MessageVector:
        require_int("length", length)
        require_int("seed", seed)
        rng = random.Random(seed)
        return cls(q=q, values=tuple(rng.randrange(q)
                                     for _ in range(length)))


@record
class DiskShare:
    """All symbols stored on one disk, as (group, row, value) triples in
    slot order."""

    disk: int
    symbols: tuple[tuple[int, int, int], ...]
    # the CodeSpec a check_share passed it against (not a field)
    _checked = None

    def __post_init__(self):
        require_int("disk id", self.disk)
        if self.disk < 1:
            raise ValueError("disk ids are 1-based")
        syms = self.symbols
        if not syms:
            return
        # every check runs in C builtins; the loop only names a failure
        try:
            js, is_, vs = zip(*syms, strict=True)
            entries = js + is_ + vs
            valid = set(map(type, entries)) == {int} and min(entries) >= 0
        except ValueError:   # symbols of unequal length, or not 3 long
            valid = False
        if not valid:
            for sym in syms:
                if len(sym) != 3:
                    raise ValueError(f"malformed share symbol {sym!r}")
                for x in sym:
                    require_int(f"share symbol {sym!r}: entry", x)
                    if x < 0:
                        raise ValueError(f"malformed share symbol {sym!r}")
        if list(syms) != sorted(syms):
            raise ValueError("share symbols must be in slot order")

    def value_map(self) -> dict[tuple[int, int], int]:
        return {(j, i): v for j, i, v in self.symbols}


@record
class ShareSet:
    """A collection of shares for distinct disks, kept in disk order."""

    shares: tuple[DiskShare, ...]

    def __post_init__(self):
        disks = [s.disk for s in self.shares]
        if len(set(disks)) != len(disks):
            raise ValueError("duplicate disk in share set")
        if disks != sorted(disks):
            object.__setattr__(self, "shares",
                               tuple(sorted(self.shares,
                                            key=lambda s: s.disk)))

    def __iter__(self):
        return iter(self.shares)

    def __len__(self) -> int:
        return len(self.shares)

    def disks(self) -> tuple[int, ...]:
        return tuple(s.disk for s in self.shares)

    def get(self, disk: int) -> DiskShare:
        for s in self.shares:
            if s.disk == disk:
                return s
        raise ValueError(f"no share for disk {disk}")

    def subset(self, disks) -> ShareSet:
        want = set(disks)
        picked = tuple(s for s in self.shares if s.disk in want)
        if len(picked) != len(want):
            have = {s.disk for s in picked}
            raise ValueError(f"no share for disks "
                             f"{sorted(want - have)}")
        return ShareSet(shares=picked)

    def without(self, *disks) -> ShareSet:
        drop = set(disks)
        return ShareSet(shares=tuple(s for s in self.shares
                                     if s.disk not in drop))

    def replace(self, share: DiskShare) -> ShareSet:
        rest = tuple(s for s in self.shares if s.disk != share.disk)
        return ShareSet(shares=rest + (share,))


@record
class RepairTranscript:
    """What each helper transmitted during one repair.

    helpers lists every contacted disk, each disk offered to repair (at
    least d = n-t+1 of them suffice), with its transmitted (group, row,
    value) symbols: stored symbols, copied verbatim.  Each affected group
    transmits its lowest m held rows; other contacted disks transmit
    nothing.  checks lists the same disks with the stored symbols they
    send only for the cross-check: the held rows of an affected group
    beyond the m copied.  total_symbols counts the copied symbols, gamma
    for a whole repair; check_symbols counts the check reads.
    """

    failed: int
    helpers: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]
    checks: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]

    @property
    def helper_count(self) -> int:
        return len(self.helpers)

    @property
    def total_symbols(self) -> int:
        return sum(len(syms) for _, syms in self.helpers)

    @property
    def check_symbols(self) -> int:
        return sum(len(syms) for _, syms in self.checks)


def check_share(spec: CodeSpec,
                share: DiskShare) -> tuple[tuple[int, ...], ...]:
    """Validate a share's coordinates and values against the code spec;
    returns the share's group, row and value columns.

    A share that passes is marked with spec, and a later check against
    the same spec object only returns the columns: a share is frozen,
    so it still passes.  Any other spec gets the full check.
    """
    syms = share.symbols
    js, is_, vs = zip(*syms) if syms else ((), (), ())
    if share._checked is spec:
        return js, is_, vs
    p = spec.params
    if not 1 <= share.disk <= p.n:
        raise ShareFormatError(f"disk {share.disk} outside 1..{p.n}")
    groups, rows = spec.layout.disk_columns(share.disk)
    if js != groups or is_ != rows:
        coords = tuple((j, i) for j, i, _ in syms)
        raise ShareFormatError(
            f"share for disk {share.disk} carries slots {coords}, "
            f"expected {spec.layout.disk_slots(share.disk)}")
    q = spec.field.q
    if vs and (min(vs) < 0 or max(vs) >= q):
        raise ShareFormatError(f"share for disk {share.disk} has a symbol "
                               f"outside GF({q})")
    _setattr(share, "_checked", spec)
    return js, is_, vs


def _checked_share(spec: CodeSpec, disk: int, symbols) -> DiskShare:
    """A share the library made with spec.layout.disk_slots(disk) as its
    slots and values reduced mod q.  Both DiskShare's checks and
    check_share's hold by construction, so neither runs; the share is
    marked as checked against spec."""
    share = object.__new__(DiskShare)
    _setattr(share, "disk", disk)
    _setattr(share, "symbols", symbols)
    _setattr(share, "_checked", spec)
    return share


def _message_values(spec: CodeSpec, message) -> tuple[int, ...]:
    q, M = spec.field.q, spec.params.M
    if not isinstance(message, MessageVector):
        message = MessageVector(q, tuple(message))
    elif message.q != q:
        raise ValueError(f"message modulus {message.q} does not match "
                         f"the code field GF({q})")
    if len(message.values) != M:
        raise ValueError(f"message must have M = {M} symbols, "
                         f"got {len(message.values)}")
    return message.values


def _share_map(spec: CodeSpec, shares) -> dict[int, DiskShare]:
    """The shares by disk, each checked once against spec: a share
    already marked with spec is not checked again."""
    out: dict[int, DiskShare] = {}
    for share in shares:
        if share._checked is not spec:
            check_share(spec, share)
        if share.disk in out:
            raise ValueError(f"duplicate share for disk {share.disk}")
        out[share.disk] = share
    return out


def _group_columns(spec: CodeSpec, steps, held):
    """(columns, kernels) of the long-layer columns of the groups of a
    plan.

    held maps (group, row) to a stored symbol.  Groups using rows
    0..m-1, the identity rows of the short generator, copy them as
    their columns.  Every other group is solved from the rows its plan
    uses; groups using the same rows share one product with their
    group_decoder solve matrix.  Surplus rows are not read.  A heavy
    group gets its column with the free symbols 0 and, in kernels, its
    kernel basis.
    """
    m = spec.params.m
    systematic = tuple(range(m))
    by_sel: dict[tuple[int, ...], list[int]] = {}
    for j, used, _ in steps:
        by_sel.setdefault(used, []).append(j)
    cols, kernels = {}, {}
    for sel, js in by_sel.items():
        s, count = len(sel), len(js)
        x = [held[(j, i)] for i in sel for j in js]
        kernel = ()
        if sel != systematic:
            solve, kernel = group_decoder(spec, sel)
            x = _kmul(solve, m, s, x, s, count, spec.field.q)
        for g, j in enumerate(js):
            cols[j] = x[g::count]
            if kernel:
                kernels[j] = kernel
    return cols, kernels


def encode(spec: CodeSpec, message) -> ShareSet:
    """Produce the n disk shares for a message."""
    values = _message_values(spec, message)
    p, q = spec.params, spec.field.q
    m, N = p.m, p.nstar
    w = list(values)
    w += [sum(map(mul, row, values)) % q for row in spec.s_rows]
    # rows 0..m-1 of every group are its long-layer column, copied
    out = [v for i in range(m) for v in w[i::m]]
    out += short_layer(spec, out, N)
    return ShareSet(shares=tuple(
        _checked_share(spec, disk, tuple(
            (j, i, out[i * N + j]) for j, i in spec.layout.disk_slots(disk)))
        for disk in range(1, p.n + 1)))


def repair(spec: CodeSpec, failed: int,
           shares) -> tuple[DiskShare, RepairTranscript]:
    """Rebuild a disk exactly from helper shares.

    Any helper set that leaves every group of the failed disk with at
    least m = r-t+1 held rows will do; every set of d = n-t+1 or more
    other disks does, as it misses at most t-2 disks of any block.  Per
    affected group the lowest-indexed m held rows transmit one stored
    symbol each (copy only); the group column is solved and the lost row
    recomputed, by one short_layer product over the groups that lost a
    parity row or hold surplus rows.  Held rows beyond the m used are
    also read, listed in the transcript's checks, and cross-checked
    against the recomputation; a mismatch raises CorruptionError naming
    the group and the disks of its copied and checked rows.  A helper
    set that leaves a group short raises ValueError naming the group.
    """
    p = spec.params
    require_int("disk id", failed)
    if not 1 <= failed <= p.n:
        raise ValueError(f"disk {failed} outside 1..{p.n}")
    pool = _share_map(spec, shares)
    if failed in pool:
        raise ValueError(f"disk {failed} cannot help repair itself")
    held = {(j, i): v for share in pool.values() for j, i, v in share.symbols}
    groups = spec.layout.groups
    affected, lost = spec.layout.disk_columns(failed)  # its groups, rows
    steps = plan(spec, pool, affected)
    for j, used, _ in steps:
        if len(used) < p.m:
            absent = [disk for disk in groups[j]
                      if disk != failed and disk not in pool]
            raise ValueError(
                f"repair of disk {failed}: group {j} on disks {groups[j]} "
                f"holds {len(used)} of the m = {p.m} rows it needs; "
                f"missing helpers {absent}")
    cols, _ = _group_columns(spec, steps, held)
    # rows 0..m-1 of a group are its column, copied; rows m..r-1 are
    # made only for the groups that read them, in one product
    rows = [cols[j] for (j, _, surplus), i in zip(steps, lost)
            if surplus or i >= p.m]
    if rows:
        top = [col[c] for c in range(p.m) for col in rows]
        parity = short_layer(spec, top, len(rows))
        for g, col in enumerate(rows):
            col += parity[g::len(rows)]
    sent: dict[int, list[tuple[int, int, int]]] = {h: [] for h in pool}
    checked: dict[int, list[tuple[int, int, int]]] = {h: [] for h in pool}
    rebuilt: list[tuple[int, int, int]] = []
    for g, (j, used, surplus) in enumerate(steps):
        block, col = groups[j], cols[j]
        for i in used:
            sent[block[i]].append((j, i, held[(j, i)]))
        for i in surplus:
            checked[block[i]].append((j, i, held[(j, i)]))
            if held[(j, i)] != col[i]:
                raise CorruptionError(
                    f"repair of disk {failed}: group {j} is inconsistent; "
                    f"its rows copied from disks "
                    f"{[block[i] for i in used]} disagree with its check "
                    f"rows on disks {[block[i] for i in surplus]}")
        rebuilt.append((j, lost[g], col[lost[g]]))
    share = _checked_share(spec, failed, tuple(rebuilt))
    transcript = RepairTranscript(
        failed=failed,
        helpers=tuple((h, tuple(sent[h])) for h in sorted(sent)),
        checks=tuple((h, tuple(checked[h])) for h in sorted(checked)))
    return share, transcript


def reconstruct(spec: CodeSpec, shares) -> MessageVector:
    """Decode the message from exactly k disk shares.

    Every group is decoded from its own held rows, a group hit in t or
    more erased disks up to its kernel basis; one solve of the T x T(A)
    reduced system then gives the kernel coefficients.  Raises
    ValueError when the spec fails its rank condition on the erasure
    pattern, and CorruptionError when T > T(A) and the shares contradict
    the long-layer parity checks.
    """
    p, q = spec.params, spec.field.q
    m, M, T = p.m, p.M, p.T
    pool = _share_map(spec, shares)
    if len(pool) != p.k:
        raise ValueError(f"reconstruction needs exactly k = {p.k} shares, "
                         f"got {len(pool)}")
    missing = tuple(sorted(set(range(1, p.n + 1)) - set(pool)))
    held = {(j, i): v for share in pool.values() for j, i, v in share.symbols}
    cols, kernels = _group_columns(spec, plan(spec, pool), held)
    # long-layer symbols; heavy groups' free symbols stay 0 for now
    w = [v for j in range(p.nstar) for v in cols[j]]
    heavy = sorted(kernels)
    # the T x T(A) matrix [S | -I] K_A, one image per kernel vector
    images = [col for j in heavy for col in parity_block(spec, j, kernels[j])]
    width = len(images)
    # [S | -I] w = 0 with the known part moved to the right-hand side
    rhs = [(w[M + t] - sum(map(mul, srow, w))) % q
           for t, srow in enumerate(spec.s_rows)]
    rank, z = _ksolve([col[t] for t in range(T) for col in images], T,
                      width, rhs, 1, q)
    if rank < width:
        raise ValueError(
            f"the stored parity matrix cannot decode erasure pattern "
            f"{missing}; the code spec fails its rank condition")
    if z is None:
        raise CorruptionError(
            f"the shares contradict each other under erasure pattern "
            f"{missing}")
    off = 0
    for j in heavy:
        kernel = kernels[j]
        f = len(kernel) // m
        for c in range(m):
            w[j * m + c] = (w[j * m + c] + sum(map(
                mul, kernel[c * f:(c + 1) * f], z[off:off + f]))) % q
        off += f
    return MessageVector(q=q, values=tuple(w[:M]))


def symbol_width(q: int) -> int:
    """Bytes needed to store one symbol of GF(q)."""
    return max(1, ((q - 1).bit_length() + 7) // 8)


def _record_struct(width: int) -> struct.Struct:
    """One share record: group, row, value width, then the value."""
    return struct.Struct(f"<IBB{width}s")


def _template(spec: CodeSpec, disk: int) -> tuple:
    """(header, prefixes, body) of disk's share file under spec: the
    whole header, each record's 6-byte group, row and width prefix in
    slot order, and one struct of all the records, each read as its
    prefix and its value bytes.  Made once per spec and disk
    (spec.share_templates)."""
    tpl = spec.share_templates.get(disk)
    if tpl is None:
        width = symbol_width(spec.field.q)
        slots = spec.layout.disk_slots(disk)
        tpl = spec.share_templates[disk] = (
            _HEADER.pack(_MAGIC, spec.spec_hash, disk, len(slots)),
            tuple(struct.pack("<IBB", j, i, width) for j, i in slots),
            struct.Struct("<" + f"6s{width}s" * len(slots)))
    return tpl


def share_to_bytes(spec: CodeSpec, share: DiskShare) -> bytes:
    """Serialize one share: magic, spec digest, disk id, symbol count,
    then one record per symbol.

    Once check_share has passed, the share's slots are the layout's,
    so the header and the record prefixes are the disk's template, and
    only the values are converted."""
    if share._checked is not spec:
        check_share(spec, share)
    header, prefixes, _ = _template(spec, share.disk)
    width = symbol_width(spec.field.q)
    return header + b"".join(map(add, prefixes, map(
        int.to_bytes, map(itemgetter(2), share.symbols), repeat(width),
        repeat("little"))))


def share_from_bytes(spec: CodeSpec, raw: bytes) -> DiskShare:
    """Parse and validate one share.

    A file is accepted at once when its disk's template (_template)
    fits: the size is the template's, one unpack of the records gives
    the template's prefixes, and every value is below q.  Any other
    file takes the naming pass: the whole records, up to the header's
    count, are unpacked in one iter_unpack pass, and ShareFormatError
    names the first fault: a record of the wrong width, a record cut
    off at the end of the file, or trailing bytes.
    """
    if raw[:4] != _MAGIC:
        raise ShareFormatError("bad magic; not a share file")
    if len(raw) < _HEADER.size:
        raise ShareFormatError("truncated share header")
    _, digest, disk, count = _HEADER.unpack_from(raw)
    if digest != spec.spec_hash:
        raise ShareFormatError("share was written for a different code "
                               "spec (digest mismatch)")
    q = spec.field.q
    if 1 <= disk <= spec.params.n:
        header, prefixes, body = _template(spec, disk)
        if count == len(prefixes) and len(raw) == len(header) + body.size:
            fields = body.unpack_from(raw, len(header))
            if fields[::2] == prefixes:
                values = tuple(map(int.from_bytes, fields[1::2],
                                   repeat("little")))
                if not values or max(values) < q:
                    return _checked_share(spec, disk, tuple(
                        zip(*spec.layout.disk_columns(disk), values)))
    width = symbol_width(q)
    rec = _record_struct(width)
    off = _HEADER.size
    whole = min(count, (len(raw) - off) // rec.size)
    end = off + whole * rec.size
    js, is_, ws, vs = (tuple(zip(*rec.iter_unpack(memoryview(raw)[off:end])))
                       or ((),) * 4)
    rest = len(raw) - end
    if whole < count and rest >= 6:     # the cut-off record's width byte
        ws += (raw[end + 5],)
    if set(ws) - {width}:
        w = next(w for w in ws if w != width)
        raise ShareFormatError(f"record width {w} does not match the "
                               f"field width {width}")
    if whole < count:
        raise ShareFormatError("truncated share record" if rest < 6
                               else "truncated share value")
    if rest:
        raise ShareFormatError(f"{rest} trailing bytes after the last "
                               f"record")
    symbols = tuple(zip(js, is_, map(int.from_bytes, vs, repeat("little"))))
    try:
        share = DiskShare(disk=disk, symbols=symbols)
    except ValueError as exc:
        raise ShareFormatError(str(exc)) from None
    check_share(spec, share)
    return share


def write_share(spec: CodeSpec, share: DiskShare, path) -> None:
    with open(path, "wb") as fh:
        fh.write(share_to_bytes(spec, share))


def read_share(spec: CodeSpec, path) -> DiskShare:
    with open(path, "rb") as fh:
        return share_from_bytes(spec, fh.read())
