"""Deterministic in-memory cluster simulator.

A Cluster provisions n nodes with the shares of one encoded message,
then replays scripted or randomized fail/repair/read events, keeping a
per-node bandwidth ledger.  Event handlers record failures instead of
raising, so a scenario always replays to completion and the report
carries the outcome of every step.

Scenario events are fail(node), repair(node), read(disks) and
assert(predicate); validation, JSON in and out, and replay all read one
table, _EVENT_KINDS, of each kind's argument field and Cluster method.
"""

from __future__ import annotations

import json
import random

from ._record import record, require_int
from .codec import (CorruptionError, MessageVector, ShareFormatError,
                    ShareSet, encode, reconstruct, repair)
from .codespec import CodeSpec

PREDICATES = ("durable", "intact", "ledger_balanced")

# event kind -> (ScenarioEvent field holding its argument, Cluster method)
_EVENT_KINDS = {"fail": ("node", "fail"), "repair": ("node", "repair"),
                "read": ("disks", "read"), "assert": ("predicate", "check")}


@record
class ScenarioEvent:
    """One scripted step: fail(node), repair(node), read(disks), or
    assert(predicate).  A list of disks becomes a tuple."""

    kind: str
    node: int | None = None
    disks: tuple[int, ...] | None = None
    predicate: str | None = None

    def __post_init__(self):
        if type(self.disks) is list:
            object.__setattr__(self, "disks", tuple(self.disks))
        if self.kind not in _EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        field = _EVENT_KINDS[self.kind][0]
        for other, _ in _EVENT_KINDS.values():
            if other != field and getattr(self, other) is not None:
                raise ValueError(f"{self.kind} event takes no {other}")
        arg = getattr(self, field)
        if field == "node" and type(arg) is not int:
            raise ValueError(f"{self.kind} event needs a node id")
        if field == "disks" and (type(arg) is not tuple
                                 or not all(type(x) is int for x in arg)):
            raise ValueError("read event needs a list of disk ids")
        if field == "predicate" and arg not in PREDICATES:
            raise ValueError(f"unknown predicate {arg!r}; choose from "
                             f"{PREDICATES}")


@record
class Scenario:
    """An ordered event script."""

    events: tuple[ScenarioEvent, ...]

    @classmethod
    def from_json(cls, text: str) -> Scenario:
        doc = json.loads(text)
        if not (isinstance(doc, dict)
                and isinstance(doc.get("events"), list)):
            raise ValueError('scenario JSON must be {"events": [...]}')
        events = []
        for entry in doc["events"]:
            if not isinstance(entry, dict) or len(entry) != 1:
                raise ValueError(f"each event must have exactly one key, "
                                 f"got {entry!r}")
            kind, arg = next(iter(entry.items()))
            if kind not in _EVENT_KINDS:
                raise ValueError(f"unknown event kind {kind!r}")
            field = _EVENT_KINDS[kind][0]
            events.append(ScenarioEvent(kind=kind, **{field: arg}))
        return cls(events=tuple(events))

    def to_json(self) -> str:
        # json writes the disks tuple of a read as a list
        out = [{ev.kind: getattr(ev, _EVENT_KINDS[ev.kind][0])}
               for ev in self.events]
        return json.dumps({"events": out}, separators=(",", ":"))


@record
class SimulationReport:
    """Replay outcome: every event's result plus the final ledger."""

    n: int
    k: int
    events: tuple[dict, ...]
    sent: dict[int, int]
    received: dict[int, int]
    live: tuple[int, ...]
    failed: tuple[int, ...]
    durable: bool
    intact: bool
    all_ok: bool
    repairs: int
    mismatches: int

    def to_json(self) -> str:
        doc = {
            "n": self.n, "k": self.k,
            "events": list(self.events),
            "ledger": {"sent": {str(i): v for i, v in self.sent.items()},
                       "received": {str(i): v
                                    for i, v in self.received.items()}},
            "final": {"live": list(self.live),
                      "failed": list(self.failed),
                      "durable": self.durable, "intact": self.intact},
            "all_ok": self.all_ok,
            "repairs": self.repairs,
            "mismatches": self.mismatches,
        }
        return json.dumps(doc, separators=(",", ":"))


def _labelled(exc: ValueError, label: str) -> str:
    """An event's error text: corrupt and malformed share data get their
    own labels, any other ValueError the given one."""
    if isinstance(exc, CorruptionError):
        label = "corrupt share data"
    elif isinstance(exc, ShareFormatError):
        label = "malformed share"
    return f"{label}: {exc}"


class Cluster:
    """Mutable n-node cluster state for one code and one message."""

    def __init__(self, spec: CodeSpec, shares: ShareSet):
        n = spec.params.n
        if shares.disks() != tuple(range(1, n + 1)):
            raise ValueError(f"cluster needs shares for disks 1..{n}")
        self.spec = spec
        self.reference = shares
        self.nodes: dict[int, object] = {s.disk: s for s in shares}
        self.sent = {i: 0 for i in range(1, n + 1)}
        self.received = {i: 0 for i in range(1, n + 1)}
        self.events: list[dict] = []
        self.repairs = 0
        self.mismatches = 0

    @classmethod
    def provision(cls, spec: CodeSpec, msg: MessageVector) -> Cluster:
        return cls(spec, encode(spec, msg))

    # ---- state queries ------------------------------------------------

    def live(self) -> tuple[int, ...]:
        return tuple(i for i, s in sorted(self.nodes.items())
                     if s is not None)

    def failed(self) -> tuple[int, ...]:
        return tuple(i for i, s in sorted(self.nodes.items()) if s is None)

    def durable(self) -> bool:
        p = self.spec.params
        return len(self.failed()) <= p.n - p.k

    def intact(self) -> bool:
        """Every live node holds exactly its originally encoded share."""
        return all(share is None or share == self.reference.get(node)
                   for node, share in self.nodes.items())

    def ledger_balanced(self) -> bool:
        return sum(self.sent.values()) == sum(self.received.values())

    def _valid_node(self, node) -> bool:
        return type(node) is int and 1 <= node <= self.spec.params.n

    # ---- event handlers (record, never raise) -------------------------

    def fail(self, node: int) -> dict:
        ev = {"event": "fail", "node": node}
        if not self._valid_node(node):
            ev.update(ok=False, error=f"unknown node {node}")
        elif self.nodes[node] is None:
            ev.update(ok=False, error=f"node {node} is already failed")
        else:
            self.nodes[node] = None
            ev.update(ok=True, durable=self.durable())
        self.events.append(ev)
        return ev

    def repair(self, node: int) -> dict:
        ev = {"event": "repair", "node": node}
        if not self._valid_node(node):
            ev.update(ok=False, error=f"unknown node {node}")
        elif self.nodes[node] is not None:
            ev.update(ok=False, error=f"node {node} is live; nothing to "
                                      f"repair")
        else:
            try:
                share, transcript = repair(
                    self.spec, node, [s for s in self.nodes.values()
                                      if s is not None])
            except ValueError as exc:
                ev.update(ok=False,
                          error=_labelled(exc, "insufficient helpers"))
            else:
                self.nodes[node] = share
                total = 0
                for helper, syms in transcript.helpers + transcript.checks:
                    self.sent[helper] += len(syms)
                    total += len(syms)
                self.received[node] += total
                self.repairs += 1
                ev.update(ok=True, transferred=total,
                          exact=share == self.reference.get(node))
        self.events.append(ev)
        return ev

    def read(self, disks) -> dict:
        ids = list(disks)
        ev = {"event": "read", "disks": ids}
        p = self.spec.params
        if (len(set(ids)) != len(ids)
                or not all(self._valid_node(i) for i in ids)):
            ev.update(ok=False, error="read subset has invalid or "
                                      "duplicate disk ids")
        elif len(ids) < p.k:
            ev.update(ok=False, error=f"read needs at least k = {p.k} "
                                      f"disks, got {len(ids)}")
        else:
            down = [i for i in ids if self.nodes[i] is None]
            if down:
                ev.update(ok=False, durable=self.durable(),
                          error=f"durability violation: read touched "
                                f"failed nodes {down}")
            else:
                try:
                    msg = reconstruct(self.spec,
                                      [self.nodes[i] for i in ids])
                except ValueError as exc:
                    ev.update(ok=False,
                              error=_labelled(exc, "undecodable read"))
                else:
                    ev.update(ok=True, symbols=len(msg.values))
                    ev["message"] = list(msg.values)
        self.events.append(ev)
        return ev

    def check(self, predicate: str) -> dict:
        ev = {"event": "assert", "predicate": predicate}
        if predicate in PREDICATES:
            ev["ok"] = getattr(self, predicate)()
        else:
            ev.update(ok=False, error=f"unknown predicate {predicate!r}")
        self.events.append(ev)
        return ev

    def report(self) -> SimulationReport:
        return SimulationReport(
            n=self.spec.params.n, k=self.spec.params.k,
            events=tuple(self.events),
            sent=dict(self.sent), received=dict(self.received),
            live=self.live(), failed=self.failed(),
            durable=self.durable(), intact=self.intact(),
            all_ok=all(e.get("ok", False) for e in self.events),
            repairs=self.repairs, mismatches=self.mismatches)


def run_scenario(spec: CodeSpec, msg: MessageVector,
                 scenario: Scenario) -> SimulationReport:
    """Replay a scripted scenario against a freshly provisioned
    cluster."""
    cluster = Cluster.provision(spec, msg)
    for ev in scenario.events:
        field, method = _EVENT_KINDS[ev.kind]
        getattr(cluster, method)(getattr(ev, field))
    return cluster.report()


def random_failure_soak(spec: CodeSpec, msg: MessageVector, steps: int,
                        seed: int = 0) -> SimulationReport:
    """Seeded fail-one/repair-one cycles with a bit-exact state audit
    after every cycle."""
    require_int("steps", steps)
    require_int("seed", seed)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    cluster = Cluster.provision(spec, msg)
    rng = random.Random(seed)
    n = spec.params.n
    for cycle in range(steps):
        node = rng.randrange(1, n + 1)
        cluster.fail(node)
        cluster.repair(node)
        ok = cluster.intact() and cluster.failed() == ()
        if not ok:
            cluster.mismatches += 1
        cluster.events.append({"event": "soak_check", "cycle": cycle,
                               "ok": ok})
    return cluster.report()
