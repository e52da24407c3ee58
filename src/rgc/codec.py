"""Encoding, repair, and reconstruction for two-layer design codes.

Shares are per-disk symbol lists addressed by (group, row): group j is
the parity group hosted by design block j, row i its position inside
the block.  Encoding expands the message through the long layer
(appending T parity symbols) and then all group columns through the
short layer.  The T long-layer checks are packed into lanes of one int
per position (CodeSpec.packed_checks), so encode's T parity symbols and
reconstruct's T right-hand sides are each one sum of products, read
lane by lane.  The short code is systematic, so a group's rows 0..m-1
are its long-layer column, copied, and only its parity rows m..r-1 take
a product, one for all groups.  Reads and repairs use each group's
lowest m = r-t+1 held rows and keep the rest as surplus.  The group's
row map (construction.group_decoder, kept per spec and row tuple) gives
every row of the group as one fixed combination of the used rows, the
free symbols 0 when it uses fewer than m, and their kernel basis.
Repair follows the plan of its helpers (construction.plan): it copies
the used rows of each affected group from any d = n-t+1 other disks, or
any helpers holding m rows of each, and reads the surplus only to
cross-check: each lost or checked symbol is its row of the map applied
to the used rows.  A repair plan (_repair_plan) holds these rows, the
gathers of the sent symbols from the helpers' shares and the error
texts; it is made once per (failed disk, helper set) and kept in
spec.repair_plans, so a repair with a known plan is gathers and one
m-term sum per symbol.  A read works by position: each held share is
scattered into encode's flat r x N array, rows 0..m-1 of every group
are copied as its column, and only a group on a missing disk that lost
one of those rows computes them, each from its map.  One T x T(A)
solve on the heavy groups' kernels (groups using fewer than m rows)
then gives the kernel coefficients; its rank decides decodability.
A share file is written and read through its disk's template: the
header, the record prefixes and one struct of all the records, made
once per spec and disk; the template also holds the positions of the
disk's slots in the flat array, which encode gathers from and a read
scatters to.  A file that does not fit its template exactly goes to
one iter_unpack pass over its whole records, the only code that names a
fault: the first in file order.

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
from operator import itemgetter, mul

from ._kernel import mat_mul as _kmul
from ._kernel import mat_solve as _ksolve
from ._record import record, require_int
from .construction import CodeSpec, group_decoder, parity_block, plan

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
    """A length-M message over GF(q); any other iterable of values (a
    list, a range, a generator) is read once, into a tuple."""

    q: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("modulus must be at least 2")
        values = self.values
        if type(values) is not tuple:
            values = tuple(values)
            _setattr(self, "values", values)
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
    slot order; lists, of the triples or of their entries, become tuples."""

    disk: int
    symbols: tuple[tuple[int, int, int], ...]
    # the CodeSpec a check_share passed it against (not a field)
    _checked = None

    def __post_init__(self):
        require_int("disk id", self.disk)
        if self.disk < 1:
            raise ValueError("disk ids are 1-based")
        syms = self.symbols
        if type(syms) is list or (type(syms) is tuple
                                  and list in map(type, syms)):
            syms = tuple(tuple(x) if type(x) is list else x for x in syms)
            _setattr(self, "symbols", syms)
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
        message = MessageVector(q, message)
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


def encode(spec: CodeSpec, message) -> ShareSet:
    """Produce the n disk shares for a message.

    One sum of the message times the packed check columns
    (spec.packed_checks) gives all T long-layer parity symbols, one per
    lane.  Each group's rows 0..m-1 copy its long-layer column, and one
    product of the short generator's parity rows with all the columns
    gives the rows m..r-1.  Each disk's values are one gather from the
    flat result, kept in its share template (_template), zipped with
    its slots."""
    values = _message_values(spec, message)
    p, q = spec.params, spec.field.q
    m, N = p.m, p.nstar
    mask, shifts, packed = spec.packed_checks
    total = sum(map(mul, values, packed))
    w = [*values, *[(total >> s & mask) % q for s in shifts]]
    # flat m x N: entry (i, j) is row i of group j
    out = [v for i in range(m) for v in w[i::m]]
    out += _kmul([v for row in spec.short_gen[m:] for v in row], p.r - m, m,
                 out, m, N, q)
    columns = spec.layout.disk_columns
    return ShareSet(shares=tuple(
        _checked_share(spec, disk, tuple(
            zip(*columns(disk), _template(spec, disk)[4](out))))
        for disk in range(1, p.n + 1)))


def _gather(at):
    """A function taking a sequence to the tuple of its items at the
    positions at, or None when at is empty."""
    if len(at) > 1:
        return itemgetter(*at)
    if at:
        x, = at
        return lambda items: (items[x],)
    return None


def _repair_plan(spec: CodeSpec, failed: int, pool) -> tuple:
    """(error, helpers, checks, lost): what repairing disk failed from
    the disks of pool takes, worked out once per (failed, helper set)
    from plan and the row maps of group_decoder (spec.repair_plans).

    error is the ValueError text of the first affected group left with
    fewer than m held rows, or None.  helpers lists each disk of pool in
    disk order with two gathers from its share's symbols, each None when
    it gathers nothing: the stored symbols the disk sends to be copied,
    and those it sends to check.  checks has one (position among the
    checked values, gather of the group's m used values from the copied
    values, the row taking them to the checked symbol, the group's
    CorruptionError text) per surplus row, in plan order.  lost has one
    (gather of the used values, the row taking them to the lost symbol)
    per affected group, in the failed disk's slot order.  The row of row
    i is row i of the group's row map for its used rows, so a plan does
    no arithmetic of its own.
    """
    m, blocks = spec.params.m, spec.layout.groups
    affected, rows = spec.layout.disk_columns(failed)  # its groups, rows
    steps = plan(spec, pool, affected)
    for j, used, _ in steps:
        if len(used) < m:
            absent = [disk for disk in blocks[j]
                      if disk != failed and disk not in pool]
            return (f"repair of disk {failed}: group {j} on disks "
                    f"{blocks[j]} holds {len(used)} of the m = {m} rows it "
                    f"needs; missing helpers {absent}", (), (), ())
    sent = {h: [] for h in sorted(pool)}
    read = {h: [] for h in sorted(pool)}
    for j, used, surplus in steps:
        for i in used:
            sent[blocks[j][i]].append((j, i))
        for i in surplus:
            read[blocks[j][i]].append((j, i))

    def places(slots):
        return {slot: x for x, slot in enumerate(slots)}

    helpers = []
    for h in sent:
        at = places(spec.layout.disk_slots(h))
        helpers.append((h, _gather([at[s] for s in sent[h]]),
                        _gather([at[s] for s in read[h]])))
    sent_at = places(s for slots in sent.values() for s in slots)
    read_at = places(s for slots in read.values() for s in slots)
    checks, lost = [], []
    for (j, used, surplus), i in zip(steps, rows):
        coefs, _ = group_decoder(spec, used)
        gather = _gather([sent_at[(j, u)] for u in used])
        block = blocks[j]
        checks += [(read_at[(j, x)], gather, coefs[x],
                    f"repair of disk {failed}: group {j} is inconsistent; "
                    f"its rows copied from disks {[block[u] for u in used]} "
                    f"disagree with its check rows on disks "
                    f"{[block[x] for x in surplus]}") for x in surplus]
        lost.append((gather, coefs[i]))
    return None, tuple(helpers), tuple(checks), tuple(lost)


def repair(spec: CodeSpec, failed: int,
           shares) -> tuple[DiskShare, RepairTranscript]:
    """Rebuild a disk exactly from helper shares.

    Any helper set that leaves every group of the failed disk with at
    least m = r-t+1 held rows will do; every set of d = n-t+1 or more
    other disks does, as it misses at most t-2 disks of any block.  Per
    affected group the lowest-indexed m held rows transmit one stored
    symbol each (copy only), and the lost symbol is one m-term
    combination of them.  Held rows beyond the m used are also read,
    listed in the transcript's checks, and each is compared with its own
    m-term combination of the copied rows; a mismatch raises
    CorruptionError naming the first such group and the disks of its
    copied and checked rows.  A helper set that leaves a group short
    raises ValueError naming the group.  The gathers, combinations and
    error texts are worked out on the first repair of each (failed disk,
    helper set) and kept in spec.repair_plans (_repair_plan), so a later
    repair with the same helpers only gathers and combines.
    """
    p, q = spec.params, spec.field.q
    require_int("disk id", failed)
    if not 1 <= failed <= p.n:
        raise ValueError(f"disk {failed} outside 1..{p.n}")
    pool = _share_map(spec, shares)
    if failed in pool:
        raise ValueError(f"disk {failed} cannot help repair itself")
    key = (failed, tuple(sorted(pool)))
    found = spec.repair_plans.get(key)
    if found is None:
        found = spec.repair_plans[key] = _repair_plan(spec, failed, pool)
    error, helpers, checks, lost = found
    if error:
        raise ValueError(error)
    sent = tuple([(h, copy(pool[h].symbols) if copy else ())
                  for h, copy, _ in helpers])
    read = tuple([(h, check(pool[h].symbols) if check else ())
                  for h, _, check in helpers])
    copied = [v for _, syms in sent for _, _, v in syms]
    checked = [v for _, syms in read for _, _, v in syms]
    for at, used, coef, text in checks:
        if checked[at] != sum(map(mul, coef, used(copied))) % q:
            raise CorruptionError(text)
    values = [sum(map(mul, row, used(copied))) % q for used, row in lost]
    share = _checked_share(spec, failed, tuple(
        zip(*spec.layout.disk_columns(failed), values)))
    return share, RepairTranscript(failed=failed, helpers=sent, checks=read)


def reconstruct(spec: CodeSpec, shares) -> MessageVector:
    """Decode the message from exactly k disk shares.

    The held shares are scattered into encode's flat r x N array at
    their templates' positions (_template).  Only a group on a missing
    disk that lost one of its rows 0..m-1 computes them, from its lowest
    m held rows and its row map (group_decoder), up to its kernel basis
    when it holds fewer.  One solve of the T x T(A) reduced system then
    gives the kernel coefficients.  Raises ValueError when the spec fails
    its rank condition on the erasure pattern, and CorruptionError when
    T > T(A) and the shares contradict the long-layer parity checks.
    """
    p, q = spec.params, spec.field.q
    m, M, N, T = p.m, p.M, p.nstar, p.T
    pool = _share_map(spec, shares)
    if len(pool) != p.k:
        raise ValueError(f"reconstruction needs exactly k = {p.k} shares, "
                         f"got {len(pool)}")
    missing = tuple(x for x in range(1, p.n + 1) if x not in pool)
    flat = [0] * (p.r * N)          # entry (i, j) is row i of group j
    for disk, share in pool.items():
        for x, (_, _, v) in zip(_template(spec, disk)[3], share.symbols):
            flat[x] = v
    # long-layer symbols; heavy groups' free symbols stay 0 for now
    w = [0] * (m * N)
    for c in range(m):
        w[c::m] = flat[c * N:(c + 1) * N]
    # per lost-row mask: the used rows' offsets in flat, the kernel and
    # the map row of each lost row < m (a used row is its own copy)
    steps, kernels = {}, {}
    for j, h in spec.layout.lost_rows(missing).items():
        if h & (1 << m) - 1:        # lost a row of its column
            step = steps.get(h)
            if step is None:
                used = tuple(i for i in range(p.r) if not h >> i & 1)[:m]
                rowmap, kernel = group_decoder(spec, used)
                step = steps[h] = ([i * N for i in used], kernel, [
                    (c, rowmap[c]) for c in range(m) if h >> c & 1])
            offs, kernel, rows = step
            vals = [flat[o + j] for o in offs]
            for c, row in rows:
                w[j * m + c] = sum(map(mul, row, vals)) % q
            if kernel:
                kernels[j] = kernel
    heavy = sorted(kernels)
    # the T x T(A) matrix [S | -I] K_A, one image per kernel vector
    images = [col for j in heavy for col in parity_block(spec, j, kernels[j])]
    width = len(images)
    # [S | -I] w = 0 with the known part moved to the right-hand side:
    # lane t of the packed sum is check t of w
    mask, shifts, packed = spec.packed_checks
    total = sum(map(mul, w, packed))
    rhs = [-(total >> s & mask) % q for s in shifts]
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
    """(header, prefixes, body, at, gather) of disk's share file under
    spec: the whole header, each record's 6-byte group, row and width
    prefix in slot order, one struct of all the records, each a prefix
    and its value bytes, the slots' positions at in encode's flat r x N
    result (entry (i, j) at i * N + j), which reconstruct scatters to,
    and the gather of the disk's values from it.  Made once per spec and
    disk (spec.share_templates)."""
    tpl = spec.share_templates.get(disk)
    if tpl is None:
        width = symbol_width(spec.field.q)
        slots = spec.layout.disk_slots(disk)
        N = spec.params.nstar
        at = tuple(i * N + j for j, i in slots)
        tpl = spec.share_templates[disk] = (
            _HEADER.pack(_MAGIC, spec.spec_hash, disk, len(slots)),
            tuple(struct.pack("<IBB", j, i, width) for j, i in slots),
            struct.Struct("<" + f"6s{width}s" * len(slots)),
            at, _gather(at))
    return tpl


def share_to_bytes(spec: CodeSpec, share: DiskShare) -> bytes:
    """Serialize one share: magic, spec digest, disk id, symbol count,
    then one record per symbol.

    Once check_share has passed, the share's slots are the layout's,
    so the header and the record prefixes are the disk's template, and
    one pack of its body struct writes the prefixes interleaved with
    the value bytes."""
    if share._checked is not spec:
        check_share(spec, share)
    header, prefixes, body, _, _ = _template(spec, share.disk)
    fields = [None] * (2 * len(prefixes))
    fields[::2] = prefixes
    fields[1::2] = map(int.to_bytes, map(itemgetter(2), share.symbols),
                       repeat(symbol_width(spec.field.q)), repeat("little"))
    return header + body.pack(*fields)


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
        header, prefixes, body, _, _ = _template(spec, disk)
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
