"""Command-line surface: every path is a thin adapter over the library."""

import hashlib
import importlib.util
import json
import os
import pathlib

import pytest

from rgc.analysis import sweep_tradeoff, tradeoff_csv
from rgc.cli import cli_dispatch
from rgc.codec import (DiskShare, MessageVector, encode, read_share,
                       write_share)
from rgc.codespec import CodeSpec
from rgc.construction import build_code
from rgc.designs import BlockDesign, gen_steiner_triple
from rgc.storesim import (Cluster, Scenario, ScenarioEvent,
                          random_failure_soak, run_scenario)

WORKLOADS = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "workloads.py")


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_design_gen_steiner(capsys):
    code, out, _ = run(capsys, "design", "gen", "--steiner-triple",
                       "--n", "9")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["blocks"]) == 12
    assert BlockDesign.from_json(out) == gen_steiner_triple(9)


def test_design_gen_complete_and_verify(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, "design", "gen", "--complete", "--t", "2",
                     "--r", "3", "--n", "9", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "design", "verify", "--design", str(path))
    assert code == 0
    assert "ok: S_7(2,3,9)" in out


def test_design_verify_flags_bad_design(capsys, tmp_path):
    design = gen_steiner_triple(9)
    broken = BlockDesign(n=9, t=2, r=3, lam=1, blocks=design.blocks[1:])
    path = tmp_path / "bad.json"
    path.write_text(broken.to_json())
    code, _, err = run(capsys, "design", "verify", "--design", str(path))
    assert code == 1
    assert err.startswith("error:")


def test_code_build_refuses_a_block_list_that_is_not_a_design(capsys,
                                                              tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(BlockDesign(n=7, t=2, r=3, lam=1, blocks=(
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7), (3, 4, 5),
        (5, 6, 7))).to_json())
    code, out, err = run(capsys, "code", "build", "--design", str(path),
                         "--k", "4")
    assert (code, out) == (1, "")
    assert err == ("error: design is not an S_1(2,3,7): 2-subset (1, 2) "
                   "covered 5 times, expected 1\n")


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "design", "gen", "--n", "9")[0] == 2
    assert run(capsys, "design", "gen", "--steiner-triple", "--complete",
               "--n", "9")[0] == 2
    code, _, err = run(capsys, "design", "gen", "--complete", "--n", "9")
    assert code == 2 and "--complete requires --t and --r" in err
    assert run(capsys, "analyze", "tradeoff", "--n", "9", "--k", "7")[0] \
        == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "--help")[0] == 0
    # a malformed flag value is a usage error that names the flag
    bad_values = (
        ("--q", ("code", "build", "--design", "d.json", "--k", "7",
                 "--q", "abc")),
        ("--epsilon", ("analyze", "exponents", "--tau1", "1", "--tau2", "1",
                       "--epsilon", "1/0", "--n-list", "64")),
        ("--epsilon", ("analyze", "exponents", "--tau1", "1", "--tau2", "1",
                       "--epsilon", "abc", "--n-list", "64")),
    )
    for flag, argv in bad_values:
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"argument {flag}" in err
        assert "Traceback" not in err


def test_domain_errors_exit_1_without_traceback(capsys):
    code, _, err = run(capsys, "design", "gen", "--steiner-triple",
                       "--n", "8")
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    code, _, err = run(capsys, "code", "build", "--design", "missing.json",
                       "--k", "7")
    assert code == 1
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Design, built spec, message file, and encoded share directory."""
    root = tmp_path_factory.mktemp("cliwork")
    design_path = root / "d9.json"
    design_path.write_text(gen_steiner_triple(9).to_json() + "\n")
    assert cli_dispatch(["code", "build", "--design", str(design_path),
                         "--k", "7", "--q", "3", "--seed", "1",
                         "--out", str(root / "spec.json")]) == 0
    spec = CodeSpec.load(root / "spec.json")
    msg = MessageVector.random(3, 23, seed=21)
    (root / "msg.txt").write_text(msg.to_text())
    assert cli_dispatch(["encode", "--spec", str(root / "spec.json"),
                         "--message", str(root / "msg.txt"),
                         "--out-dir", str(root / "shares")]) == 0
    return root, spec, msg


def test_build_is_deterministic(capsys, tmp_path, workdir):
    root, _, _ = workdir
    for name in ("a.json", "b.json"):
        code, _, _ = run(capsys, "code", "build",
                         "--design", str(root / "d9.json"), "--k", "7",
                         "--q", "auto", "--seed", "5",
                         "--out", str(tmp_path / name))
        assert code == 0
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()


def test_build_output_matches_library(workdir):
    root, spec, _ = workdir
    direct = build_code(gen_steiner_triple(9), 7, q=3, seed=1).spec
    assert spec == direct
    assert (root / "spec.json").read_text() == direct.to_json() + "\n"


def test_inspect_prints_normalized_point(capsys, workdir):
    root, _, _ = workdir
    code, out, _ = run(capsys, "code", "inspect",
                       "--spec", str(root / "spec.json"))
    assert code == 0
    assert "alpha_bar = 4 (4.000000)" in out
    assert "M_bar = 23 (23.000000)" in out
    assert "satisfied: True" in out


def test_code_verify_ok(capsys, workdir):
    root, _, _ = workdir
    code, out, _ = run(capsys, "code", "verify",
                       "--spec", str(root / "spec.json"))
    assert code == 0
    assert "36 of 36" in out


def test_encode_writes_one_file_per_disk(workdir):
    root, spec, msg = workdir
    names = sorted(os.listdir(root / "shares"))
    assert names == [f"disk_{i}.share" for i in range(1, 10)]
    direct = encode(spec, msg)
    for i in range(1, 10):
        assert read_share(spec, root / "shares" / f"disk_{i}.share") \
            == direct.get(i)


def test_repair_round_trip(capsys, workdir, tmp_path):
    root, spec, _ = workdir
    original = (root / "shares" / "disk_6.share").read_bytes()
    out_path = tmp_path / "rebuilt.share"
    code, out, _ = run(capsys, "repair", "--spec", str(root / "spec.json"),
                       "--failed", "6",
                       "--shares", str(root / "shares"),
                       "--out", str(out_path),
                       "--transcript", str(tmp_path / "t.json"))
    assert code == 0
    assert "8 symbols moved" in out
    assert out_path.read_bytes() == original
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["failed"] == 6 and len(doc["helpers"]) == 8
    assert doc["total_symbols"] == 8 and doc["check_symbols"] == 0


def test_repair_insists_on_all_helpers(capsys, workdir, tmp_path):
    root, spec, msg = workdir
    partial = tmp_path / "partial"
    partial.mkdir()
    for i in (1, 2, 3):
        data = (root / "shares" / f"disk_{i}.share").read_bytes()
        (partial / f"disk_{i}.share").write_bytes(data)
    code, _, err = run(capsys, "repair", "--spec",
                       str(root / "spec.json"), "--failed", "9",
                       "--shares", str(partial),
                       "--out", str(tmp_path / "x.share"))
    assert code == 1
    assert "helper" in err


def test_repair_transcript_counts_check_reads(capsys, t3_spec, tmp_path):
    """On complete(3,4,7) k=4 every group of disk 1 holds a third row;
    the transcript lists those check reads next to the copied symbols."""
    spec_path, shares_dir = tmp_path / "spec.json", tmp_path / "shares"
    t3_spec.save(spec_path)
    shares_dir.mkdir()
    msg = MessageVector.random(t3_spec.field.q, t3_spec.params.M, seed=2)
    for share in encode(t3_spec, msg).without(1):
        write_share(t3_spec, share, shares_dir / f"disk_{share.disk}.share")
    code, out, _ = run(capsys, "repair", "--spec", str(spec_path),
                       "--failed", "1", "--shares", str(shares_dir),
                       "--out", str(tmp_path / "d1.share"),
                       "--transcript", str(tmp_path / "t.json"))
    assert code == 0
    assert "60 symbols moved (40 copied, 20 read to check)" in out
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["total_symbols"] == 40 and doc["check_symbols"] == 20
    assert sum(len(h["symbols"]) for h in doc["checks"]) == 20


def test_reconstruct_round_trip(capsys, workdir, tmp_path):
    """k share files decode the message, and so do more of them."""
    root, _, msg = workdir
    out_path = tmp_path / "recovered.txt"
    for disks in ("1,3,4,5,7,8,9", "1,2,3,4,5,7,8,9", "1,2,3,4,5,6,7,8,9"):
        code, _, _ = run(capsys, "reconstruct", "--spec",
                         str(root / "spec.json"),
                         "--shares", str(root / "shares"),
                         "--disks", disks, "--out", str(out_path))
        assert code == 0
        assert MessageVector.from_text(3, out_path.read_text()) == msg


def test_tradeoff_csv_matches_library(capsys):
    code, out, _ = run(capsys, "analyze", "tradeoff", "--n", "9",
                       "--k", "7", "--d", "8")
    assert code == 0
    assert out == tradeoff_csv(sweep_tradeoff(9, 7, 8))
    assert "9,7,8,5,2,1,67,5,14,14,0" in out


def test_exponents_formats(capsys):
    code, out, _ = run(capsys, "analyze", "exponents", "--tau1", "1",
                       "--tau2", "1", "--epsilon", "1/2",
                       "--n-list", "64,256")
    assert code == 0
    assert out.startswith("n,tau1,tau2,epsilon,Er,Ed,region")
    assert len(out.strip().split("\n")) == 3
    code, out, _ = run(capsys, "analyze", "exponents", "--tau1", "1",
                       "--tau2", "1", "--epsilon", "1/2",
                       "--n-list", "64", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["region"] == "inside"


def test_compare_text_and_json(capsys, tmp_path, workdir):
    root, _, _ = workdir
    complete = tmp_path / "c.json"
    assert cli_dispatch(["design", "gen", "--complete", "--t", "2",
                         "--r", "3", "--n", "9",
                         "--out", str(complete)]) == 0
    code, out, _ = run(capsys, "analyze", "compare",
                       "--design1", str(root / "d9.json"),
                       "--design2", str(complete), "--k", "7")
    assert code == 0
    assert "equal: True" in out
    code, out, _ = run(capsys, "analyze", "compare",
                       "--design1", str(root / "d9.json"),
                       "--design2", str(complete), "--k", "7",
                       "--format", "json")
    assert json.loads(out)["M_bar_complete"] == "23"


def test_sim_run_and_soak(capsys, workdir, tmp_path):
    root, _, _ = workdir
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"events": [
        {"fail": 2}, {"repair": 2}, {"assert": "intact"}]}))
    code, out, _ = run(capsys, "sim", "run", "--spec",
                       str(root / "spec.json"),
                       "--message", str(root / "msg.txt"),
                       "--scenario", str(scen))
    assert code == 0
    assert json.loads(out)["all_ok"] is True

    code, out, _ = run(capsys, "sim", "soak", "--spec",
                       str(root / "spec.json"),
                       "--message", str(root / "msg.txt"),
                       "--steps", "12", "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["repairs"] == 12 and doc["mismatches"] == 0


def test_sim_run_reports_scripted_violation(capsys, workdir, tmp_path):
    root, _, _ = workdir
    scen = tmp_path / "viol.json"
    scen.write_text(json.dumps({"events": [
        {"fail": 1}, {"read": [1, 2, 3, 4, 5, 6, 7]}]}))
    code, out, _ = run(capsys, "sim", "run", "--spec",
                       str(root / "spec.json"),
                       "--message", str(root / "msg.txt"),
                       "--scenario", str(scen))
    assert code == 1
    doc = json.loads(out)
    assert doc["all_ok"] is False
    assert "durability violation" in doc["events"][1]["error"]


def test_sim_run_records_undecodable_read(capsys, tmp_path,
                                          failing_c9_spec):
    """A scripted read that the spec cannot decode makes sim run exit 1,
    and the report is still written."""
    spec_path, msg_path = tmp_path / "spec.json", tmp_path / "msg.txt"
    failing_c9_spec.save(spec_path)
    msg = MessageVector.random(31, failing_c9_spec.params.M, seed=2)
    msg_path.write_text(msg.to_text())
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"events": [
        {"read": [1, 2, 3, 4, 5, 6, 9]}, {"read": [1, 2, 3, 4, 5, 6, 7]}]}))
    out = tmp_path / "report.json"
    code, _, err = run(capsys, "sim", "run", "--spec", str(spec_path),
                       "--message", str(msg_path), "--scenario", str(scen),
                       "--out", str(out))
    assert code == 1 and err == ""
    doc = json.loads(out.read_text())
    assert doc["all_ok"] is False
    bad, good = doc["events"]
    assert not bad["ok"] and bad["error"].startswith("undecodable read: ")
    assert good["ok"] and good["message"] == list(msg.values)


def test_inspect_refuses_a_field_too_small_for_the_short_generator(
        capsys, tmp_path, t3_spec):
    """A complete(3,4,7) k=4 spec over GF(3) cannot make its Cauchy
    parity rows, so inspect exits 1 with one error line."""
    doc = json.loads(t3_spec.to_json())
    doc.update(q=3, s=[str(int(v) % 3) for v in doc["s"]])
    bad = tmp_path / "gf3.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "code", "inspect", "--spec", str(bad))
    assert (code, out) == (1, "")
    assert err == (f"error: {bad}: field GF(3) too small for a Cauchy "
                   f"parity block; need q >= r = 4\n")


@pytest.mark.parametrize("command,flag,mangle", [
    pytest.param(("code", "inspect"), "--spec",
                 lambda spec, design: dict(spec, layout=5), id="layout"),
    pytest.param(("code", "inspect"), "--spec",
                 lambda spec, design: dict(spec, params=None), id="params"),
    pytest.param(("code", "verify"), "--spec",
                 lambda spec, design: dict(spec, phi=[1.5]), id="phi"),
    pytest.param(("design", "verify"), "--design",
                 lambda spec, design: dict(design, n="9"), id="design-n"),
    pytest.param(("design", "verify"), "--design",
                 lambda spec, design: [design], id="design-list"),
    pytest.param(("sim", "run"), "--scenario",
                 lambda spec, design: {"events": None}, id="events"),
    pytest.param(("sim", "run"), "--scenario",
                 lambda spec, design: {"events": [{"read": 5}]},
                 id="read-event"),
    pytest.param(("code", "inspect"), "--spec",
                 lambda spec, design: "1 2 3\n", id="spec-not-json"),
    pytest.param(("design", "verify"), "--design",
                 lambda spec, design: "1 2\n", id="design-not-json"),
    pytest.param(("analyze", "compare"), "--design1",
                 lambda spec, design: "1 2\n", id="design1-not-json"),
    pytest.param(("analyze", "compare"), "--design2",
                 lambda spec, design: "{", id="design2-not-json"),
    pytest.param(("sim", "run"), "--scenario",
                 lambda spec, design: "fail 1\n", id="scenario-not-json"),
])
def test_malformed_json_exits_1_with_one_error_line(capsys, tmp_path,
                                                    workdir, command, flag,
                                                    mangle):
    """JSON of the wrong shape, or a file that is not JSON at all, is a
    domain error whose one line names the file."""
    root, _, _ = workdir
    spec_doc = json.loads((root / "spec.json").read_text())
    design_doc = json.loads((root / "d9.json").read_text())
    bad = tmp_path / "bad.json"
    doc = mangle(spec_doc, design_doc)
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [*command, flag, str(bad)]
    if command == ("sim", "run"):
        argv += ["--spec", str(root / "spec.json"),
                 "--message", str(root / "msg.txt")]
    if command == ("analyze", "compare"):
        other = "--design2" if flag == "--design1" else "--design1"
        argv += [other, str(root / "d9.json"), "--k", "7"]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err


def _bench_workloads():
    """perfbench/workloads.py, loaded as a module."""
    loader = importlib.util.spec_from_file_location("_bench_workloads",
                                                    WORKLOADS)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    return workloads


def test_benchmark_cli_pins(tmp_path):
    """The benchmark's walkthrough commands whose outputs do not depend
    on its seed reproduce every output the benchmark pins."""
    workloads = _bench_workloads()
    seeded = {"encode", "repair", "reconstruct", "sim-soak"}
    walk = {"failed": 1, "read": [], "soak_seed": 0}
    outputs = {}
    for name, argv in workloads.walkthrough(tmp_path, walk):
        if name not in seeded:
            workloads.clear_caches()
            code, outputs[name] = workloads.run_inprocess(argv, None)
            assert code == 0, name
    for name, pin in workloads.CLI_PINS.items():
        data = ((tmp_path / name).read_bytes() if name.endswith(".json")
                else outputs[name])
        assert workloads.sha256(data) == pin, name


def test_benchmark_store_ops_pass_their_checks():
    """The first 40 scheduled operations of each store workload (seed
    1) on its saved spec pass the benchmark's own checks: the shares,
    the share bytes, the repaired disk, gamma, the copied symbols and
    the read."""
    workloads = _bench_workloads()
    for workload, name in workloads.STORE_CODES.items():
        sched = workloads.schedule(workload, 1, 1)
        spec = CodeSpec.load(workloads.SPECS / f"{name}.json")
        run = workloads.Run()
        assert workloads.check_reference(name, spec) == []
        q = workloads.CODES[name][4]
        for m, failed, read in sched["ops"][:40]:
            msg = MessageVector(q, sched["messages"][m])
            workloads.store_op(run, spec, msg, failed, read)()
        assert (run.attempted, run.failed, run.problems) == (40, 0, [])


def _cli_outcome(capsys, tmp_path, argv):
    """Exit code, stdout and stderr of one command with the work
    directory replaced by a placeholder; a usage error (exit 2) gives
    its exit code only, since argparse words its own messages."""
    code = cli_dispatch([a.replace("<tmp>", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    if code == 2:
        return "exit 2"
    text = f"exit {code}\n{captured.out}\n{captured.err}"
    return text.replace(str(tmp_path), "<tmp>")


def _message(spec, seed=0):
    return MessageVector.random(spec.field.q, spec.params.M, seed=seed)


def _scenario_error(text):
    try:
        Scenario.from_json(text)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    raise AssertionError(f"scenario accepted: {text}")


# The first 16 hex digits of the SHA-256 of each of the 92 outcomes of
# test_cli_and_simulator_outcomes_pinned, in its order: the CLI runs,
# the files they wrote, the scripted, direct and random simulations and
# the malformed-scenario errors.
_OUTCOME_DIGESTS = (
    "5d432ac38fde6635", "1ae9146f0b79e0ff", "0f9bdbe0c58ef77d",
    "1ae9146f0b79e0ff", "1ae9146f0b79e0ff", "bb409f7be29ddb39",
    "caf36839a4dea5e1", "caf36839a4dea5e1", "caf36839a4dea5e1",
    "caf36839a4dea5e1", "3d676dce83adba4e", "b337de98feab509e",
    "0c30f3009fbd7f08", "31b424423ef1de3d", "caf36839a4dea5e1",
    "634f6b08bbc70045", "b2db1d62160cd9e3", "634501c8611a7277",
    "d4f77bf65d71a126", "caf36839a4dea5e1", "dbaafa303b6506ca",
    "745dd3a59ace3144", "3616fd939a1705cc", "ac2e723a54d282ae",
    "a89ccbdad82f4645", "79d7518fdd49d7a8", "caf36839a4dea5e1",
    "bbaf757c98071655", "81579fa3f6719831", "3b6dbd7c3a0d5ad1",
    "60d9ff73a242d7b1", "c2295659d2e5d4c6", "b1a607ec8fa9861a",
    "655da789191aae61", "caf36839a4dea5e1", "05ae68447083005b",
    "1ae9146f0b79e0ff", "7c0604d30b5497cd", "904c5b9022ea83b4",
    "4e6bb8a93301ad66", "d70d0eb249702ce6", "e089b3f2c5f64515",
    "caf36839a4dea5e1", "b265a431bcfc6dfa", "00bd8d3187bce904",
    "f3ef672c3ef9a547", "f9a5aa590c40bab8", "caf36839a4dea5e1",
    "34ad7ca261c99595", "8f3a864ada890c93", "e852ae858b214766",
    "5e792c55ed4d9c46", "736d3fd3aad4ab61", "c5b5ed816fdc1feb",
    "eea64aa8ee1d5ae0", "39f2f224df97e3bf", "caf36839a4dea5e1",
    "caf36839a4dea5e1", "caf36839a4dea5e1", "1aa3547047d3008f",
    "d40a0476233b2dd7", "6c327a8dfa3a3dc1", "3f916b94f3d6817d",
    "29a5631638a84d72", "44d9d7eb06f7135d", "f34d3c0cafa962b1",
    "67dcf84bf2b777a1", "933c2670cae673c4", "c8c1a5776f0bf9c1",
    "c7050eca52ea5943", "bef5c04e4a7f9d1f", "da2de5310487904e",
    "a7ec3245415f1a74", "bd4bc6b68bc15b2d", "253d40db6447678e",
    "f1974384ebe4ead2", "5e05e698f86d95dd", "5e05e698f86d95dd",
    "5e05e698f86d95dd", "b486e70562ed31e7", "12486440346e62c1",
    "cfed36b1815da094", "a590d817be2909b2", "2e9c8cd6693b9e0f",
    "2e9c8cd6693b9e0f", "f1e23ff383366f02", "d08d7edfdbfb6663",
    "d08d7edfdbfb6663", "d08d7edfdbfb6663", "d08d7edfdbfb6663",
    "cf3916d299a62196", "b0e3f7ca1851ea28",
)


def test_cli_and_simulator_outcomes_pinned(capsys, tmp_path, golden_spec,
                                           t3_spec, failing_c9_spec):
    """Every subcommand, its domain errors and usage errors; scripted
    and random simulations reaching every event kind, predicate and
    error label; and every malformed-scenario error text."""
    d9 = gen_steiner_triple(9)
    (tmp_path / "bad.json").write_text(BlockDesign(
        n=9, t=2, r=3, lam=1, blocks=d9.blocks[1:]).to_json())
    failing_c9_spec.save(tmp_path / "fail.json")
    (tmp_path / "short.txt").write_text("1 2 0\n")
    (tmp_path / "msg.txt").write_text(
        MessageVector.random(3, 23, seed=21).to_text())
    (tmp_path / "empty").mkdir()
    scenarios = {"ok": [{"fail": 2}, {"repair": 2}, {"assert": "intact"},
                        {"assert": "durable"},
                        {"read": [1, 3, 4, 5, 6, 7, 9]}],
                 "viol": [{"fail": 1}, {"read": [1, 2, 3, 4, 5, 6, 7]},
                          {"assert": "ledger_balanced"}],
                 "bad": [{"fail": 1, "repair": 1}]}
    for name, events in scenarios.items():
        (tmp_path / f"{name}.scen").write_text(json.dumps({"events": events}))
    spec = ("--spec", "<tmp>/spec.json")
    msg = ("--message", "<tmp>/msg.txt")
    argvs = [
        ("design", "gen", "--steiner-triple", "--n", "9"),
        ("design", "gen", "--steiner-triple", "--n", "9",
         "--out", "<tmp>/d9.json"),
        ("design", "gen", "--steiner-triple", "--n", "8"),
        ("design", "gen", "--complete", "--t", "2", "--r", "3", "--n", "9",
         "--out", "<tmp>/c9.json"),
        ("design", "gen", "--complete", "--t", "3", "--r", "4", "--n", "7",
         "--out", "<tmp>/c347.json"),
        ("design", "gen", "--complete", "--t", "4", "--r", "3", "--n", "9"),
        ("design", "gen", "--complete", "--n", "9"),
        ("design", "gen", "--complete", "--t", "2", "--n", "9"),
        ("design", "gen", "--n", "9"),
        ("design", "gen", "--steiner-triple", "--complete", "--n", "9"),
        ("design", "verify", "--design", "<tmp>/d9.json"),
        ("design", "verify", "--design", "<tmp>/c347.json"),
        ("design", "verify", "--design", "<tmp>/bad.json"),
        ("design", "verify", "--design", "<tmp>/missing.json"),
        ("design", "verify"),
        ("code", "build", "--design", "<tmp>/d9.json", "--k", "7",
         "--q", "3", "--seed", "1", "--out", "<tmp>/spec.json"),
        ("code", "build", "--design", "<tmp>/c347.json", "--k", "4",
         "--out", "<tmp>/t3.json"),
        ("code", "build", "--design", "<tmp>/d9.json", "--k", "9"),
        ("code", "build", "--design", "<tmp>/d9.json", "--k", "7",
         "--budget", "0"),
        ("code", "build", "--design", "<tmp>/d9.json", "--k", "7",
         "--q", "abc"),
        ("code", "inspect", *spec),
        ("code", "inspect", "--spec", "<tmp>/t3.json"),
        ("code", "inspect", "--spec", "<tmp>/d9.json"),
        ("code", "verify", *spec),
        ("code", "verify", *spec, "--sample", "5", "--seed", "2"),
        ("code", "verify", "--spec", "<tmp>/fail.json"),
        ("code", "frobnicate"),
        ("encode", *spec, *msg, "--out-dir", "<tmp>/shares"),
        ("encode", *spec, "--message", "<tmp>/short.txt",
         "--out-dir", "<tmp>/x"),
        ("encode", *spec, "--message", "<tmp>/missing.txt",
         "--out-dir", "<tmp>/x"),
        ("repair", *spec, "--failed", "6", "--shares", "<tmp>/shares",
         "--out", "<tmp>/r6.share", "--transcript", "<tmp>/t6.json"),
        ("repair", *spec, "--failed", "2", "--shares", "<tmp>/shares",
         "--out", "<tmp>/r2.share"),
        ("repair", *spec, "--failed", "9", "--shares", "<tmp>/empty",
         "--out", "<tmp>/r9.share"),
        ("repair", *spec, "--failed", "10", "--shares", "<tmp>/shares",
         "--out", "<tmp>/r10.share"),
        ("repair", *spec, "--shares", "<tmp>/shares"),
        ("reconstruct", *spec, "--shares", "<tmp>/shares",
         "--disks", "1,3,4,5,7,8,9"),
        ("reconstruct", *spec, "--shares", "<tmp>/shares",
         "--disks", "1,2,3,4,5,6,7", "--out", "<tmp>/rec.txt"),
        ("reconstruct", *spec, "--shares", "<tmp>/shares", "--disks", "1,2"),
        ("reconstruct", *spec, "--shares", "<tmp>/shares", "--disks", "1,x"),
        ("analyze", "tradeoff", "--n", "9", "--k", "7", "--d", "8"),
        ("analyze", "tradeoff", "--n", "9", "--k", "7", "--d", "8",
         "--format", "json"),
        ("analyze", "tradeoff", "--n", "9", "--k", "9", "--d", "8"),
        ("analyze", "tradeoff", "--n", "9", "--k", "7"),
        ("analyze", "exponents", "--tau1", "1", "--tau2", "1",
         "--epsilon", "1/2", "--n-list", "64,256"),
        ("analyze", "exponents", "--tau1", "2", "--tau2", "1",
         "--epsilon", "2/3", "--n-list", "64", "--format", "json"),
        ("analyze", "exponents", "--tau1", "1", "--tau2", "1",
         "--epsilon", "3/2", "--n-list", "64"),
        ("analyze", "exponents", "--tau1", "1", "--tau2", "1",
         "--epsilon", "1/2", "--n-list", "64,x"),
        ("analyze", "exponents", "--tau1", "1", "--tau2", "1",
         "--epsilon", "1/0", "--n-list", "64"),
        ("analyze", "compare", "--design1", "<tmp>/d9.json",
         "--design2", "<tmp>/c9.json", "--k", "7"),
        ("analyze", "compare", "--design1", "<tmp>/d9.json",
         "--design2", "<tmp>/c9.json", "--k", "6", "--format", "json"),
        ("analyze", "compare", "--design1", "<tmp>/d9.json",
         "--design2", "<tmp>/d9.json", "--k", "7"),
        ("sim", "run", *spec, *msg, "--scenario", "<tmp>/ok.scen"),
        ("sim", "run", *spec, *msg, "--scenario", "<tmp>/viol.scen",
         "--out", "<tmp>/viol.json"),
        ("sim", "run", *spec, *msg, "--scenario", "<tmp>/bad.scen"),
        ("sim", "soak", *spec, *msg, "--steps", "12", "--seed", "4"),
        ("sim", "soak", *spec, *msg, "--steps", "-1"),
        ("sim", "soak", *spec, *msg),
        ("frobnicate",),
        (),
    ]
    outcomes = [_cli_outcome(capsys, tmp_path, list(argv))
                for argv in argvs]
    for name in ("d9.json", "c9.json", "c347.json", "spec.json", "t3.json",
                 "r6.share", "t6.json", "r2.share", "rec.txt", "viol.json"):
        outcomes.append((tmp_path / name).read_bytes().hex())

    def scripted(spec, events):
        scen = Scenario(events=tuple(ScenarioEvent(**ev) for ev in events))
        return run_scenario(spec, _message(spec), scen).to_json()

    golden = [dict(kind="fail", node=99), dict(kind="repair", node=0),
              dict(kind="repair", node=5), dict(kind="fail", node=4),
              dict(kind="fail", node=4), dict(kind="assert",
                                              predicate="durable"),
              dict(kind="read", disks=(1, 2, 3, 4, 5, 6, 7)),
              dict(kind="read", disks=(1, 2, 3)),
              dict(kind="read", disks=(1, 1, 2, 3, 5, 6, 7)),
              dict(kind="read", disks=(0, 1, 2, 3, 5, 6, 7)),
              dict(kind="read", disks=(1, 2, 3, 5, 6, 7, 8)),
              dict(kind="fail", node=5), dict(kind="repair", node=4),
              dict(kind="fail", node=6),
              dict(kind="assert", predicate="durable"),
              dict(kind="repair", node=5),
              dict(kind="assert", predicate="intact"),
              dict(kind="assert", predicate="ledger_balanced")]
    deep = [dict(kind="fail", node=1), dict(kind="fail", node=2),
            dict(kind="repair", node=1), dict(kind="repair", node=2),
            dict(kind="read", disks=(1, 2, 3, 4)),
            dict(kind="assert", predicate="intact"),
            dict(kind="assert", predicate="ledger_balanced")]
    undecodable = [dict(kind="read", disks=(1, 2, 3, 4, 5, 6, 9))]
    outcomes += [scripted(golden_spec, golden), scripted(t3_spec, deep),
                 scripted(failing_c9_spec, undecodable)]
    # corrupt and malformed helper data cannot come from a freshly
    # provisioned cluster, so these events go to the cluster directly
    cluster = Cluster.provision(t3_spec, _message(t3_spec))
    g, i, v = cluster.nodes[2].symbols[0]
    cluster.nodes[2] = DiskShare(disk=2, symbols=(
        ((g, i, (v + 1) % t3_spec.field.q),)
        + cluster.nodes[2].symbols[1:]))
    cluster.fail(1)
    cluster.repair(1)
    cluster.read((2, 3, 4, 5))
    cluster.check("intact")
    cluster.check("happy")
    cluster.nodes[2] = DiskShare(disk=2, symbols=cluster.nodes[2].symbols[1:])
    cluster.repair(1)
    cluster.read((2, 3, 4, 5))
    outcomes.append(cluster.report().to_json())
    outcomes += [random_failure_soak(golden_spec, _message(golden_spec), 20,
                                     seed=12).to_json(),
                 random_failure_soak(t3_spec, _message(t3_spec), 10,
                                     seed=2).to_json()]
    outcomes += [_scenario_error(text) for text in (
        "fail 1", "[]", '{"steps": []}', '{"events": null}',
        '{"events": [5]}', '{"events": [{}]}',
        '{"events": [{"fail": 1, "repair": 2}]}',
        '{"events": [{"reboot": 1}]}', '{"events": [{"fail": "1"}]}',
        '{"events": [{"fail": true}]}', '{"events": [{"repair": null}]}',
        '{"events": [{"read": 5}]}', '{"events": [{"read": [1, "2"]}]}',
        '{"events": [{"read": [true]}]}', '{"events": [{"read": null}]}',
        '{"events": [{"assert": "happy"}]}', '{"events": [{"assert": 3}]}')]
    # one digest per outcome, so a failure names the index that moved
    assert tuple(hashlib.sha256(outcome.encode("utf-8")).hexdigest()[:16]
                 for outcome in outcomes) == _OUTCOME_DIGESTS
