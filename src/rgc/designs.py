"""Combinatorial block designs S_lambda(t, r, n).

Generators for Steiner triple systems (Bose and Skolem constructions) and
complete designs, the complete design's worst-case deficit in closed
form, an exhaustive verifier, and the canonical JSON form.
Ground sets are {1..n}; blocks are stored sorted ascending and the block
list sorted lexicographically, so layouts derived from a design are
deterministic.  Repeated blocks are permitted (block multisets).
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from math import comb
from types import MappingProxyType

from ._record import record, require_int

# Cap on the blocks that a generator lists.
MAX_BLOCKS = 10 ** 6


@record
class BlockDesign:
    """A t-design: every t-subset of {1..n} lies in exactly lam blocks."""

    n: int
    t: int
    r: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for name in ("n", "t", "r", "lam"):
            require_int(f"design {name}", getattr(self, name))
        if not 1 <= self.t <= self.r <= self.n:
            raise ValueError(
                f"need 1 <= t <= r <= n, got t={self.t} r={self.r} n={self.n}")
        if self.lam < 1:
            raise ValueError("lambda must be positive")
        canon = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        # one pass in C builtins; the loop only names the first bad point
        if set(map(type, itertools.chain.from_iterable(canon))) - {int}:
            for b in canon:
                for x in b:
                    require_int(f"block {b} point", x)
        for b in canon:
            if len(b) != self.r or len(set(b)) != self.r:
                raise ValueError(f"block {b} is not an {self.r}-subset")
            if b[0] < 1 or b[-1] > self.n:
                raise ValueError(f"block {b} leaves the ground set "
                                 f"1..{self.n}")
        object.__setattr__(self, "blocks", canon)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def _report(self) -> DesignReport:
        """verify_design's report, worked out once per design object and
        kept outside its equality, hash and JSON."""
        return _check_axioms(self)

    @cached_property
    def _cover(self) -> MappingProxyType:
        """t_subset_counts' counts, read-only, counted once per design
        object and kept, like _report, outside its equality, hash and
        JSON."""
        return MappingProxyType(_count_t_subsets(self))

    @property
    def replication(self) -> int:
        """Number of blocks through any one element."""
        num = self.lam * comb(self.n - 1, self.t - 1)
        den = comb(self.r - 1, self.t - 1)
        if num % den:
            raise ValueError("replication count is not an integer")
        return num // den

    def expected_num_blocks(self) -> int:
        num = self.lam * comb(self.n, self.t)
        den = comb(self.r, self.t)
        if num % den:
            raise ValueError("block count formula is not an integer")
        return num // den

    def to_json(self) -> str:
        """Canonical JSON; load(dump) round-trips exactly."""
        doc = {"n": self.n, "t": self.t, "r": self.r, "lambda": self.lam,
               "blocks": [list(b) for b in self.blocks]}
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> BlockDesign:
        return cls.from_doc(json.loads(text))

    @classmethod
    def from_doc(cls, doc) -> BlockDesign:
        """Build from a parsed JSON object; ValueError names a bad field."""
        return cls(n=json_int(doc, "n", "design"),
                   t=json_int(doc, "t", "design"),
                   r=json_int(doc, "r", "design"),
                   lam=json_int(doc, "lambda", "design"),
                   blocks=json_int_rows(doc, "blocks", "design"))


def json_field(doc, key: str, where: str):
    """doc[key], raising ValueError when doc is not an object or lacks
    the key; where names the document in the message."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} JSON must be an object, got "
                         f"{type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{where} JSON missing key {key!r}")
    return doc[key]


def json_int(doc, key: str, where: str) -> int:
    value = json_field(doc, key, where)
    if type(value) is not int:
        raise ValueError(f"{where} JSON field {key!r} must be an integer, "
                         f"got {value!r}")
    return value


def json_int_rows(doc, key: str, where: str) -> tuple[tuple[int, ...], ...]:
    value = json_field(doc, key, where)
    if not (isinstance(value, list)
            and all(isinstance(row, list)
                    and all(type(x) is int for x in row) for row in value)):
        raise ValueError(f"{where} JSON field {key!r} must be a list of "
                         f"integer lists")
    return tuple(tuple(row) for row in value)


def load_json_file(path, what: str, parse):
    """parse(text) of the text file at path, for a JSON document named
    what.  A ValueError names the path, and says what was expected when
    the file is not JSON text at all."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: expected a JSON {what}, but the file is "
                         f"not valid JSON ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_design(path) -> BlockDesign:
    return load_json_file(path, "design", BlockDesign.from_json)


def save_design(design: BlockDesign, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(design.to_json() + "\n")


def gen_steiner_triple(n: int) -> BlockDesign:
    """An S(2,3,n) Steiner triple system; exists iff n = 1 or 3 mod 6."""
    if n < 7 or n % 6 not in (1, 3):
        raise ValueError(
            f"no Steiner triple system on {n} points: need n >= 7 with "
            "n = 1 or 3 (mod 6)")
    _check_block_count(n * (n - 1) // 6)
    if n % 6 == 3:
        blocks = _bose_triples(n)
    else:
        blocks = _skolem_triples(n)
    return BlockDesign(n=n, t=2, r=3, lam=1, blocks=tuple(blocks))


def _check_block_count(count: int) -> None:
    if count > MAX_BLOCKS:
        raise ValueError(f"the design would have {count} blocks, above "
                         f"the cap of {MAX_BLOCKS}")


def _bose_triples(n: int) -> list[tuple[int, int, int]]:
    # n = 6t+3; v = 2t+1, idempotent quasigroup x*y = (t+1)(x+y) mod v
    t = (n - 3) // 6
    v = 2 * t + 1
    return _quasigroup_triples(v, v, lambda x, y: (t + 1) * (x + y) % v)


def _skolem_triples(n: int) -> list[tuple[int, int, int]]:
    # n = 6t+1; v = 2t, half-idempotent quasigroup x*y = f((x+y) mod v),
    # f(2i) = i, f(2i+1) = t+i, plus the point inf = n; as v is even,
    # (x+y) mod v has the parity of x+y
    t = (n - 1) // 6
    v = 2 * t
    blocks = _quasigroup_triples(
        v, t, lambda x, y: (x + y) % v // 2 + t * ((x + y) % 2))
    for x in range(t):
        blocks.extend((n, 3 * (t + x) + j, 3 * x + j % 3 + 1)
                      for j in (1, 2, 3))
    return blocks


def _quasigroup_triples(v: int, heads: int,
                        op) -> list[tuple[int, int, int]]:
    """The triples on Z_v x {1,2,3}, point (x, j) labeled 3x + j, that a
    quasigroup op on Z_v gives: {(x,1), (x,2), (x,3)} for x < heads, and
    {(x,j), (y,j), (op(x,y), j+1 mod 3)} for x < y and each j."""
    blocks = [(3 * x + 1, 3 * x + 2, 3 * x + 3) for x in range(heads)]
    for x, y in itertools.combinations(range(v), 2):
        z = op(x, y)
        blocks.extend((3 * x + j, 3 * y + j, 3 * z + j % 3 + 1)
                      for j in (1, 2, 3))
    return blocks


def gen_complete_design(t: int, r: int, n: int) -> BlockDesign:
    """All C(n,r) blocks; a t-design with lambda = C(n-t, r-t)."""
    if not 1 <= t <= r <= n:
        raise ValueError(f"need 1 <= t <= r <= n, got ({t},{r},{n})")
    _check_block_count(comb(n, r))
    blocks = tuple(itertools.combinations(range(1, n + 1), r))
    return BlockDesign(n=n, t=t, r=r, lam=comb(n - t, r - t), blocks=blocks)


def is_complete_design(design: BlockDesign) -> bool:
    """True when the block list is exactly all r-subsets, each once."""
    if (design.lam != comb(design.n - design.t, design.r - design.t)
            or design.num_blocks != comb(design.n, design.r)):
        return False
    expected = tuple(itertools.combinations(range(1, design.n + 1), design.r))
    return design.blocks == expected


def closed_form_Tc(n: int, k: int, r: int, t: int) -> int:
    """Worst-case deficit of the complete design, in closed form."""
    return sum((i - t + 1) * comb(n - k, i) * comb(k, r - i)
               for i in range(t, min(n - k, r) + 1))


@record
class DesignReport:
    ok: bool
    violations: tuple[str, ...]
    checked_subsets: int

    def first_violation(self) -> str | None:
        return self.violations[0] if self.violations else None


def t_subset_counts(design: BlockDesign) -> MappingProxyType:
    """The number of blocks holding each t-subset that some block holds,
    counted from the block list, whatever lam says: a read-only mapping,
    counted once per design object, which the design check and
    construction's compute_T share."""
    return design._cover


def _count_t_subsets(design: BlockDesign) -> dict[tuple[int, ...], int]:
    cover: dict[tuple[int, ...], int] = {}
    for block in design.blocks:
        for sub in itertools.combinations(block, design.t):
            cover[sub] = cover.get(sub, 0) + 1
    return cover


def verify_design(design: BlockDesign) -> DesignReport:
    """Exhaustively check the t-design axioms; report the violations.
    The check runs once per design object, which keeps the report."""
    return design._report


def require_design(design: BlockDesign) -> DesignReport:
    """verify_design's report of a design; ValueError names the first
    violation of a block list that is not an S_lam(t, r, n)."""
    report = verify_design(design)
    if not report.ok:
        raise ValueError(f"design is not an S_{design.lam}({design.t},"
                         f"{design.r},{design.n}): "
                         f"{report.first_violation()}")
    return report


def _check_axioms(design: BlockDesign) -> DesignReport:
    violations = []
    expected = None
    try:
        expected = design.expected_num_blocks()
    except ValueError as exc:
        violations.append(str(exc))
    if expected is not None and design.num_blocks != expected:
        violations.append(
            f"block count {design.num_blocks} != lambda*C(n,t)/C(r,t) "
            f"= {expected}")
    cover = t_subset_counts(design)
    checked = 0
    for sub in itertools.combinations(range(1, design.n + 1), design.t):
        checked += 1
        got = cover.get(sub, 0)
        if got != design.lam:
            violations.append(
                f"{design.t}-subset {sub} covered {got} times, "
                f"expected {design.lam}")
            if len(violations) >= 20:
                violations.append("... further violations suppressed")
                break
    return DesignReport(ok=not violations, violations=tuple(violations),
                        checked_subsets=checked)


# Reference systems used by the worked examples and golden tests.
S_2_3_7 = BlockDesign(n=7, t=2, r=3, lam=1, blocks=(
    (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7),
    (3, 5, 6)))

S_2_3_9 = BlockDesign(n=9, t=2, r=3, lam=1, blocks=(
    (2, 3, 4), (5, 6, 7), (1, 8, 9), (1, 4, 7), (1, 3, 5), (4, 6, 8),
    (2, 7, 9), (2, 5, 8), (1, 2, 6), (4, 5, 9), (3, 7, 8), (3, 6, 9)))

S_2_4_13 = BlockDesign(n=13, t=2, r=4, lam=1, blocks=(
    (1, 2, 4, 10), (2, 3, 5, 11), (3, 4, 6, 12), (4, 5, 7, 13),
    (5, 6, 8, 1), (6, 7, 9, 2), (7, 8, 10, 3), (8, 9, 11, 4),
    (9, 10, 12, 5), (10, 11, 13, 6), (11, 12, 1, 7), (12, 13, 2, 8),
    (13, 1, 3, 9)))

CATALOG = {"s_2_3_7": S_2_3_7, "s_2_3_9": S_2_3_9, "s_2_4_13": S_2_4_13}
