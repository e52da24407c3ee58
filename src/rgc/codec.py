"""Encoding, repair, and reconstruction for two-layer design codes.

Shares are per-disk symbol lists addressed by (group, row): group j is
the parity group hosted by design block j, row i its position inside
the block.  Encoding expands the message through the long layer
(appending T parity symbols) and then each group column through the
short layer.  One group decoder solves a group's m = r-t+1 long-layer
symbols from its lowest m held rows.  Repair contacts all other disks
and copies those rows of each affected group.  Reconstruction from k
disks runs the group decoder on groups hit in at most t-1 erased disks
and one solve of the structural system (the other groups' surviving
rows plus the T parity checks) for the rest; its rank decides
decodability.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from operator import mul

from ._kernel import mat_solve as _ksolve
from .construction import CodeSpec, structural_system

_MAGIC = b"RGC1"


class ShareFormatError(ValueError):
    """A share does not match the code spec or is malformed on disk."""


class CorruptionError(ValueError):
    """Share data contradicted itself during a repair or a decode."""


@dataclass(frozen=True)
class MessageVector:
    """A length-M message over GF(q)."""

    q: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("modulus must be at least 2")
        if any(not 0 <= v < self.q for v in self.values):
            raise ValueError("message symbol outside [0, q)")

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
        rng = random.Random(seed)
        return cls(q=q, values=tuple(rng.randrange(q)
                                     for _ in range(length)))


@dataclass(frozen=True)
class DiskShare:
    """All symbols stored on one disk, as (group, row, value) triples in
    slot order."""

    disk: int
    symbols: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.disk < 1:
            raise ValueError("disk ids are 1-based")
        for sym in self.symbols:
            if len(sym) != 3 or any(x < 0 for x in sym):
                raise ValueError(f"malformed share symbol {sym!r}")
        if list(self.symbols) != sorted(self.symbols):
            raise ValueError("share symbols must be in slot order")

    def value_map(self) -> dict[tuple[int, int], int]:
        return {(j, i): v for j, i, v in self.symbols}


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RepairTranscript:
    """What each helper transmitted during one repair.

    helpers lists every contacted disk (all n-1 of them) with its
    transmitted (group, row, value) symbols; disks outside every
    affected group transmit nothing but are still contacted.
    """

    failed: int
    helpers: tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]

    @property
    def helper_count(self) -> int:
        return len(self.helpers)

    @property
    def total_symbols(self) -> int:
        return sum(len(syms) for _, syms in self.helpers)


def check_share(spec: CodeSpec, share: DiskShare) -> None:
    """Validate a share's coordinates and values against the code spec."""
    p = spec.params
    if not 1 <= share.disk <= p.n:
        raise ShareFormatError(f"disk {share.disk} outside 1..{p.n}")
    slots = spec.layout.disk_slots(share.disk)
    coords = tuple((j, i) for j, i, _ in share.symbols)
    if coords != slots:
        raise ShareFormatError(
            f"share for disk {share.disk} carries slots {coords}, "
            f"expected {slots}")
    q = spec.field.q
    if any(not 0 <= v < q for _, _, v in share.symbols):
        raise ShareFormatError(f"share for disk {share.disk} has a symbol "
                               f"outside GF({q})")


def _message_values(spec: CodeSpec, message) -> tuple[int, ...]:
    if isinstance(message, MessageVector):
        if message.q != spec.field.q:
            raise ValueError(f"message modulus {message.q} does not match "
                             f"the code field GF({spec.field.q})")
        values = message.values
    else:
        values = tuple(int(v) for v in message)
    p, q = spec.params, spec.field.q
    if len(values) != p.M:
        raise ValueError(f"message must have M = {p.M} symbols, "
                         f"got {len(values)}")
    if any(not 0 <= v < q for v in values):
        raise ValueError(f"message symbol outside GF({q})")
    return values


def _share_map(spec: CodeSpec, shares) -> dict[int, DiskShare]:
    out: dict[int, DiskShare] = {}
    for share in shares:
        check_share(spec, share)
        if share.disk in out:
            raise ValueError(f"duplicate share for disk {share.disk}")
        out[share.disk] = share
    return out


def _group_columns(spec: CodeSpec, groups, held) -> dict[int, list[int]]:
    """Long-layer columns (m symbols each) of the given groups.

    held maps (group, row) to a stored symbol.  Each group is solved from
    its lowest m held rows; groups holding the same rows share one
    kernel call.  Held rows beyond those m are not read.
    """
    p, q = spec.params, spec.field.q
    m, sg = p.m, spec.short_gen
    by_sel: dict[tuple[int, ...], list[int]] = {}
    for j in groups:
        sel = tuple([i for i in range(p.r) if (j, i) in held][:m])
        by_sel.setdefault(sel, []).append(j)
    out = {}
    for sel, js in by_sel.items():
        rank, cols = _ksolve([v for i in sel for v in sg[i]], m, m,
                             [held[(j, i)] for i in sel for j in js],
                             len(js), q)
        if rank < m:
            raise RuntimeError("short-layer generator rows are singular; "
                               "the stored spec is corrupt")
        for g, j in enumerate(js):
            out[j] = cols[g::len(js)]
    return out


def encode(spec: CodeSpec, message) -> ShareSet:
    """Produce the n disk shares for a message."""
    values = _message_values(spec, message)
    p, q = spec.params, spec.field.q
    w = list(values)
    for row in spec.s_rows:
        w.append(sum(c * v for c, v in zip(row, values) if c) % q)
    sg = spec.short_gen
    per_disk: dict[int, list[tuple[int, int, int]]] = {}
    for j in range(p.nstar):
        col = w[j * p.m:(j + 1) * p.m]
        for i in range(p.r):
            val = sum(sg[i][c] * col[c] for c in range(p.m)) % q
            per_disk.setdefault(spec.layout.groups[j][i],
                                []).append((j, i, val))
    return ShareSet(shares=tuple(
        DiskShare(disk=disk, symbols=tuple(sorted(syms)))
        for disk, syms in sorted(per_disk.items())))


def repair(spec: CodeSpec, failed: int,
           shares) -> tuple[DiskShare, RepairTranscript]:
    """Rebuild a disk exactly from all n-1 survivors.

    Per affected group the lowest-indexed m surviving rows transmit one
    symbol each; the group column is solved and the lost row recomputed.
    Surviving rows beyond the m used (t > 2 only) are cross-checked
    against the recomputation and raise CorruptionError on mismatch.
    """
    p, q = spec.params, spec.field.q
    if not 1 <= failed <= p.n:
        raise ValueError(f"disk {failed} outside 1..{p.n}")
    pool = _share_map(spec, shares)
    if failed in pool:
        raise ValueError(f"disk {failed} cannot help repair itself")
    expect = set(range(1, p.n + 1)) - {failed}
    if set(pool) != expect:
        raise ValueError(
            f"repair of disk {failed} needs all {p.n - 1} other disks as "
            f"helpers; missing {sorted(expect - set(pool))}")
    held = {(j, i): v for share in pool.values() for j, i, v in share.symbols}
    groups = spec.layout.groups
    affected = [j for j, block in enumerate(groups) if failed in block]
    cols = _group_columns(spec, affected, held)
    sent: dict[int, list[tuple[int, int, int]]] = {h: [] for h in expect}
    rebuilt: list[tuple[int, int, int]] = []
    sg = spec.short_gen
    for j in affected:
        block, col = groups[j], cols[j]
        fi = block.index(failed)
        surv = [i for i in range(p.r) if i != fi]
        for i in surv[:p.m]:
            sent[block[i]].append((j, i, held[(j, i)]))
        for i in surv[p.m:]:
            expect_v = sum(sg[i][c] * col[c] for c in range(p.m)) % q
            if held[(j, i)] != expect_v:
                raise CorruptionError(
                    f"disk {block[i]} holds an inconsistent symbol for "
                    f"group {j} row {i}")
        lost = sum(sg[fi][c] * col[c] for c in range(p.m)) % q
        rebuilt.append((j, fi, lost))
    share = DiskShare(disk=failed, symbols=tuple(sorted(rebuilt)))
    transcript = RepairTranscript(
        failed=failed,
        helpers=tuple((h, tuple(sent[h])) for h in sorted(sent)))
    return share, transcript


def reconstruct(spec: CodeSpec, shares) -> MessageVector:
    """Decode the message from exactly k disk shares.

    Raises ValueError when the spec fails its rank condition on the
    erasure pattern, and CorruptionError when the structural system has
    more equations than unknowns and the shares contradict it.
    """
    p, q = spec.params, spec.field.q
    m, M = p.m, p.M
    pool = _share_map(spec, shares)
    if len(pool) != p.k:
        raise ValueError(f"reconstruction needs exactly k = {p.k} shares, "
                         f"got {len(pool)}")
    missing = tuple(sorted(set(range(1, p.n + 1)) - set(pool)))
    heavy, kept, rows = structural_system(spec, missing)
    held = {(j, i): v for share in pool.values() for j, i, v in share.symbols}
    # long-layer symbols of the light groups; heavy ones stay 0 for now
    w = [0] * (m * p.nstar)
    heavy_set = set(heavy)
    light = [j for j in range(p.nstar) if j not in heavy_set]
    for j, col in _group_columns(spec, light, held).items():
        w[j * m:(j + 1) * m] = col
    # [S | -I] w = 0 with the light columns moved to the right-hand side
    rhs = [held[c] for c in kept]
    for t, srow in enumerate(spec.s_rows):
        rhs.append((w[M + t] - sum(map(mul, srow, w))) % q)
    width = m * len(heavy)
    rank, x = _ksolve([v for row in rows for v in row], len(rows), width,
                      rhs, 1, q)
    if rank < width:
        raise ValueError(
            f"the stored parity matrix cannot decode erasure pattern "
            f"{missing}; the code spec fails its rank condition")
    if x is None:
        raise CorruptionError(
            f"the shares contradict each other under erasure pattern "
            f"{missing}")
    for h, j in enumerate(heavy):
        w[j * m:(j + 1) * m] = x[h * m:(h + 1) * m]
    return MessageVector(q=q, values=tuple(w[:M]))


def symbol_width(q: int) -> int:
    """Bytes needed to store one symbol of GF(q)."""
    return max(1, ((q - 1).bit_length() + 7) // 8)


def share_to_bytes(spec: CodeSpec, share: DiskShare) -> bytes:
    """Serialize one share: magic, spec digest, disk id, symbol count,
    then one record per symbol."""
    check_share(spec, share)
    width = symbol_width(spec.field.q)
    out = bytearray()
    out += _MAGIC
    out += spec.spec_hash
    out += struct.pack("<II", share.disk, len(share.symbols))
    for j, i, v in share.symbols:
        out += struct.pack("<IBB", j, i, width)
        out += v.to_bytes(width, "little")
    return bytes(out)


def share_from_bytes(spec: CodeSpec, raw: bytes) -> DiskShare:
    if raw[:4] != _MAGIC:
        raise ShareFormatError("bad magic; not a share file")
    if len(raw) < 44:
        raise ShareFormatError("truncated share header")
    digest = raw[4:36]
    if digest != spec.spec_hash:
        raise ShareFormatError("share was written for a different code "
                               "spec (digest mismatch)")
    disk, count = struct.unpack_from("<II", raw, 36)
    off = 44
    width = symbol_width(spec.field.q)
    symbols = []
    for _ in range(count):
        if off + 6 > len(raw):
            raise ShareFormatError("truncated share record")
        j, i, w = struct.unpack_from("<IBB", raw, off)
        off += 6
        if w != width:
            raise ShareFormatError(f"record width {w} does not match the "
                                   f"field width {width}")
        if off + w > len(raw):
            raise ShareFormatError("truncated share value")
        v = int.from_bytes(raw[off:off + w], "little")
        off += w
        symbols.append((j, i, v))
    if off != len(raw):
        raise ShareFormatError(f"{len(raw) - off} trailing bytes after the "
                               f"last record")
    try:
        share = DiskShare(disk=disk, symbols=tuple(symbols))
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
