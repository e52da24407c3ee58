"""Scripted and randomized cluster simulation."""

import json

import pytest

from rgc import storesim
from rgc.codec import DiskShare, MessageVector, encode
from rgc.codespec import CodeSpec
from rgc.storesim import (Cluster, Scenario, ScenarioEvent,
                          random_failure_soak, run_scenario)


def _msg(spec, seed=0):
    return MessageVector.random(spec.field.q, spec.params.M, seed=seed)


def test_event_validation():
    ScenarioEvent(kind="fail", node=3)
    ScenarioEvent(kind="read", disks=(1, 2, 3))
    ScenarioEvent(kind="assert", predicate="durable")
    with pytest.raises(ValueError):
        ScenarioEvent(kind="fail")                       # node missing
    with pytest.raises(ValueError):
        ScenarioEvent(kind="assert", predicate="happy")  # unknown check
    with pytest.raises(ValueError):
        ScenarioEvent(kind="reboot", node=1)             # unknown kind


def test_a_read_event_takes_its_disks_as_a_tuple():
    """A list of disks becomes a tuple, as a DiskShare's symbols and a
    CodeSpec's coefficients do, so the event hashes and equals the one
    made with a tuple."""
    listed = ScenarioEvent(kind="read", disks=[1, 2])
    made = ScenarioEvent(kind="read", disks=(1, 2))
    assert listed.disks == (1, 2)
    assert listed == made and hash(listed) == hash(made)


def test_event_refuses_fields_of_other_kinds():
    """A field that is not the kind's own argument is refused by name,
    since the scenario JSON could not carry it."""
    with pytest.raises(ValueError, match="^fail event takes no disks$"):
        ScenarioEvent(kind="fail", node=3, disks=(1, 2), predicate="intact")
    for kw, field in ((dict(kind="repair", node=1, predicate="durable"),
                       "predicate"),
                      (dict(kind="read", disks=(1,), node=1), "node"),
                      (dict(kind="assert", predicate="intact", disks=()),
                       "disks")):
        with pytest.raises(ValueError, match=f"takes no {field}$"):
            ScenarioEvent(**kw)


def test_scenario_json_round_trip():
    text = json.dumps({"events": [
        {"fail": 2}, {"repair": 2}, {"read": [1, 2, 3, 4, 5, 6, 7]},
        {"assert": "intact"}]})
    scen = Scenario.from_json(text)
    assert len(scen.events) == 4
    assert Scenario.from_json(scen.to_json()) == scen
    with pytest.raises(ValueError):
        Scenario.from_json('{"events": [{"fail": 1, "repair": 2}]}')
    with pytest.raises(ValueError):
        Scenario.from_json('{"steps": []}')


def test_fail_repair_read_cycle(golden_spec):
    cluster = Cluster.provision(golden_spec, _msg(golden_spec))
    assert cluster.live() == tuple(range(1, 10))
    ev = cluster.fail(4)
    assert ev["ok"] and ev["durable"]
    ev = cluster.repair(4)
    assert ev["ok"] and ev["transferred"] == 8 and ev["exact"]
    for disks in ([1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 6, 7, 8, 9],
                  list(range(1, 10))):     # k or more disks
        ev = cluster.read(disks)
        assert ev["ok"] and ev["message"] == list(_msg(golden_spec).values)
    ev = cluster.read([1, 2, 3, 4, 5, 6])
    assert ev["error"] == "read needs at least k = 7 disks, got 6"
    assert cluster.intact() and cluster.ledger_balanced()


def test_read_lists_the_ids_of_an_iterator_once(golden_spec):
    """An iterator of disk ids is consumed once: the read checks and
    decodes the same ids that its event lists."""
    cluster = Cluster.provision(golden_spec, _msg(golden_spec))
    ev = cluster.read(x for x in range(1, 8))
    assert ev["disks"] == list(range(1, 8))
    assert ev["ok"] and ev["message"] == list(_msg(golden_spec).values)


def test_read_of_failed_disk_is_flagged_not_raised(golden_spec):
    cluster = Cluster.provision(golden_spec, _msg(golden_spec))
    cluster.fail(3)
    ev = cluster.read([1, 2, 3, 4, 5, 6, 7])
    assert not ev["ok"]
    assert "durability violation" in ev["error"]
    assert cluster.durable()           # 1 failure is still within budget
    report = cluster.report()
    assert not report.all_ok


def test_undecodable_read_is_recorded_not_raised(failing_c9_spec):
    """A read of an erasure pattern on which the spec fails its rank
    condition is an ok=False event; the scenario replays to the end."""
    spec = failing_c9_spec
    scen = Scenario(events=(
        ScenarioEvent(kind="read", disks=(1, 2, 3, 4, 5, 6, 9)),
        ScenarioEvent(kind="read", disks=(1, 2, 3, 4, 5, 6, 7))))
    report = run_scenario(spec, _msg(spec), scen)
    bad, good = report.events
    assert not bad["ok"] and "message" not in bad
    assert bad["error"].startswith("undecodable read: ")
    assert "erasure pattern (7, 8)" in bad["error"]
    assert good["ok"] and good["message"] == list(_msg(spec).values)
    assert not report.all_ok


def test_corrupt_read_is_labelled(s15_spec):
    """A read whose shares contradict the spare parity checks records
    the CorruptionError under its own label."""
    spec = s15_spec
    block = spec.design.blocks[0]
    missing = set(block) | {max(set(range(1, 16)) - set(block))}
    # a group hit in two erased disks keeps one row, which the T > T(A)
    # spare checks cover
    j, group = next((j, g) for j, g in enumerate(spec.layout.groups)
                    if len(missing & set(g)) == 2)
    i, disk = next((i, d) for i, d in enumerate(group) if d not in missing)
    cluster = Cluster.provision(spec, _msg(spec))
    share = cluster.nodes[disk]
    cluster.nodes[disk] = DiskShare(disk=disk, symbols=tuple(
        (g, r, (v + 1) % spec.field.q if (g, r) == (j, i) else v)
        for g, r, v in share.symbols))
    ev = cluster.read([x for x in range(1, 16) if x not in missing])
    assert not ev["ok"]
    assert ev["error"].startswith("corrupt share data: ")


def test_repair_errors_are_labelled_by_cause(t3_spec):
    """Corrupt helper data and a malformed helper share are not reported
    as missing helpers."""
    spec = t3_spec
    cluster = Cluster.provision(spec, _msg(spec))
    g, i, v = cluster.nodes[2].symbols[0]
    cluster.nodes[2] = DiskShare(disk=2, symbols=(
        ((g, i, (v + 1) % spec.field.q),) + cluster.nodes[2].symbols[1:]))
    cluster.fail(1)
    ev = cluster.repair(1)
    assert not ev["ok"]
    assert ev["error"] == (
        "corrupt share data: repair of disk 1: group 0 is inconsistent; "
        "its rows copied from disks [2, 3] disagree with its check rows "
        "on disks [4]")
    cluster.nodes[2] = DiskShare(disk=2, symbols=cluster.nodes[2].symbols[1:])
    ev = cluster.repair(1)
    assert not ev["ok"] and ev["error"].startswith("malformed share: ")
    assert "share for disk 2 carries slots" in ev["error"]
    assert cluster.failed() == (1,) and cluster.repairs == 0


def test_repair_preconditions_recorded(golden_spec):
    cluster = Cluster.provision(golden_spec, _msg(golden_spec))
    ev = cluster.repair(5)
    assert not ev["ok"] and "live" in ev["error"]
    cluster.fail(1)
    cluster.fail(2)
    ev = cluster.repair(1)
    assert not ev["ok"] and "insufficient helpers" in ev["error"]
    ev = cluster.fail(99)
    assert not ev["ok"] and "unknown node" in ev["error"]


def test_bool_node_ids_are_refused(golden_spec):
    """JSON true is not node 1: a scenario naming it is refused, and a
    cluster records it as an unknown node or an invalid read subset."""
    for event in ({"fail": True}, {"repair": True},
                  {"read": [True, 2, 3, 4, 5, 6, 7]}):
        with pytest.raises(ValueError):
            Scenario.from_json(json.dumps({"events": [event]}))
    with pytest.raises(ValueError):
        ScenarioEvent(kind="repair", node=True)
    with pytest.raises(ValueError):
        ScenarioEvent(kind="read", disks=(1, 2, 3, 4, 5, 6, False))
    cluster = Cluster.provision(golden_spec, _msg(golden_spec))
    ev = cluster.fail(True)
    assert not ev["ok"] and ev["error"] == "unknown node True"
    assert cluster.live() == tuple(range(1, 10))
    cluster.fail(1)
    ev = cluster.repair(True)
    assert not ev["ok"] and ev["error"] == "unknown node True"
    ev = cluster.read([True, 2, 3, 4, 5, 6, 7])
    assert not ev["ok"]
    assert ev["error"] == "read subset has invalid or duplicate disk ids"
    assert cluster.failed() == (1,) and cluster.repairs == 0


def test_degraded_repair_uses_every_live_node(t3_spec):
    """c347 (t = 3): with nodes 1 and 2 down, node 1 is rebuilt from the
    d = 5 live nodes: 40 copied symbols, plus 10 check reads from the
    groups that do not contain node 2."""
    cluster = Cluster.provision(t3_spec, _msg(t3_spec))
    cluster.fail(1)
    cluster.fail(2)
    ev = cluster.repair(1)
    assert ev["ok"] and ev["exact"] and ev["transferred"] == 50
    assert cluster.received[1] == 50 and cluster.ledger_balanced()
    assert cluster.failed() == (2,)


def test_durability_budget(golden_spec):
    cluster = Cluster.provision(golden_spec, _msg(golden_spec))
    cluster.fail(1)
    cluster.fail(2)
    assert cluster.durable()           # n - k = 2 failures allowed
    cluster.fail(3)
    assert not cluster.durable()


def test_scenario_runner_and_report_json(golden_spec):
    scen = Scenario.from_json(json.dumps({"events": [
        {"fail": 7}, {"repair": 7}, {"assert": "intact"},
        {"assert": "ledger_balanced"}]}))
    report = run_scenario(golden_spec, _msg(golden_spec), scen)
    assert report.all_ok and report.repairs == 1
    doc = json.loads(report.to_json())
    assert doc["all_ok"] is True
    assert doc["ledger"]["received"]["7"] == 8
    assert doc["final"]["live"] == list(range(1, 10))


def test_soak_determinism_and_ledger(golden_spec):
    msg = _msg(golden_spec, 5)
    a = random_failure_soak(golden_spec, msg, 40, seed=12)
    b = random_failure_soak(golden_spec, msg, 40, seed=12)
    assert a.to_json() == b.to_json()
    c = random_failure_soak(golden_spec, msg, 40, seed=13)
    assert c.to_json() != a.to_json()
    assert a.repairs == 40 and a.mismatches == 0
    assert sum(a.sent.values()) == sum(a.received.values()) == 40 * 8
    checks = [e for e in a.events if e["event"] == "soak_check"]
    assert len(checks) == 40 and all(e["ok"] for e in checks)


def test_soak_on_deeper_code(t3_spec):
    report = random_failure_soak(t3_spec, _msg(t3_spec, 1), 30, seed=2)
    assert report.mismatches == 0
    p = t3_spec.params
    # with all n-1 others live, each of the failed disk's alpha groups
    # copies m rows and reads its other r-1-m held rows to check
    per_repair = p.gamma + p.alpha * (p.r - 1 - p.m)
    assert per_repair == 60
    assert sum(report.received.values()) == 30 * per_repair
    assert sum(report.sent.values()) == 30 * per_repair


def test_soak_report_is_the_same_with_cold_and_warm_repair_plans(
        complete9_spec, t3_spec):
    """A 1000-step soak on a spec with no repair plans leaves one plan
    per disk, and a second soak on the same spec, which finds them all,
    gives the same report."""
    for reference in (complete9_spec, t3_spec):
        spec = CodeSpec.from_json(reference.to_json())
        msg = _msg(spec, 3)
        cold = random_failure_soak(spec, msg, 1000, seed=5)
        assert cold.all_ok and cold.repairs == 1000
        assert len(spec.repair_plans) == spec.params.n
        warm = random_failure_soak(spec, msg, 1000, seed=5)
        assert warm == cold and warm.to_json() == cold.to_json()


def test_soak_rejects_negative_steps(golden_spec):
    with pytest.raises(ValueError):
        random_failure_soak(golden_spec, _msg(golden_spec), -1)


def test_cluster_needs_a_share_for_every_disk(golden_spec):
    shares = encode(golden_spec, _msg(golden_spec))
    for partial in (shares.without(4), shares.without(*range(1, 10))):
        with pytest.raises(ValueError) as err:
            Cluster(golden_spec, partial)
        assert str(err.value) == "cluster needs shares for disks 1..9"


def test_soak_counts_a_wrong_repair_as_a_mismatch(golden_spec, monkeypatch):
    """A repair that rebuilds the wrong share fails the cycle's audit."""
    real = storesim.repair

    def wrong(spec, node, shares):
        _, transcript = real(spec, node, shares)
        return shares[0], transcript

    monkeypatch.setattr(storesim, "repair", wrong)
    report = random_failure_soak(golden_spec, _msg(golden_spec), 3, seed=1)
    assert report.mismatches == 3
    assert [e["ok"] for e in report.events
            if e["event"] == "soak_check"] == [False] * 3
