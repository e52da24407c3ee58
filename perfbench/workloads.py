"""The four benchmark workloads and the inputs they are generated from.

Every workload is a closed loop with one client: the next operation
starts when the previous one has finished.  All inputs (messages, repair
targets, read subsets, random long-parity candidates, soak seeds) come
from ``schedule(workload, seed, seconds)`` before any timing starts; the
program only ever sees those generated values.

An operation is a timed part, the only code the tracer sees, followed by
a check that compares the program's outputs with what they must be.  A
check that fails, or a call that raises, counts the operation as failed
and the run goes on.

An operation is made of named steps (encode, read, one CLI command, one
build, ...).  Each step time is divided by the time of a fixed
calibration loop (``calibration()``) sampled just before it; ``op_cost``
adds up each step's median ratio.  Shared virtual machines can swing
between a fast and a ~1.8x slower state for seconds to minutes at a
time: on the 2-vCPU one the baseline was measured on, that moved median
times by 20-40% from run to run, and even the fastest times by up to
30% when a whole run fell in a slow stretch, while the calibration loop
slows with the step it is paired with.
Median and p99 times are still reported in the detail lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

import rgc
from rgc import cli, codec, construction, designs

ROOT = Path(__file__).resolve().parents[1]
SPECS = Path(__file__).resolve().parent / "specs"

SETUPS = 5                # set-ups per run, spread evenly over it
CAL_EVERY = 0.1           # seconds between calibration samples
CAL_REPS = 3              # calibration loops per sample; the fastest counts
WARMUP_OPS = 64           # store warm-up, the same on both store codes
STORE_OPS_PER_S = 300     # schedule horizon; wraps if a run does more
MESSAGE_POOL = 256        # distinct store messages, used round robin
SYNTH_Q = 31              # small field where random S really fails
SYNTH_PER_PASS = 3        # random S candidates verified per build pass
SYNTH_POOL = 24           # distinct candidates, used round robin
CLI_HORIZON = 64          # walkthrough inputs; wraps if a run does more
SOAK_STEPS = 1000

# Reference codes: (name, design, k, q asked for, q built, sha256 of the
# spec JSON built with seed 0).  Spec bytes must not change under fixed
# seeds.  specs/<name>.json holds the two the store workloads load.
REFERENCE_CODES = (
    ("golden", lambda: designs.gen_steiner_triple(9), 7, 3, 3,
     "4d5332ecb962e816dee1d328544b0f58b7d9021f2efc5c9b45265233141f252e"),
    ("c9", lambda: designs.gen_complete_design(2, 3, 9), 7, "auto", 40577,
     "c76e8bbb1e2f6143099c21573fff1d78a97f6178ab247c4ad7a291cf98f52fdb"),
    ("c347", lambda: designs.gen_complete_design(3, 4, 7), 4, "auto", 9241,
     "91e3860b47e368997b60e15b16f51f1f99ad78250b7d47cebc82c0f7ff4bf915"),
    ("s15", lambda: designs.gen_steiner_triple(15), 11, "auto", 524171,
     "7cbb176ce4cba73ac89e09ce7214e127ec6fb0d1f63f0e2e221cfd6c201e2753"),
)
CODES = {c[0]: c for c in REFERENCE_CODES}
STORE_CODES = {"store-c9": "c9", "store-s15": "s15"}
WORKLOADS = ("build", "store-c9", "store-s15", "cli")


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def clear_caches() -> None:
    """Empty every function cache in rgc, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "rgc" or name.startswith("rgc.")):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def build_reference(name: str):
    """Build one reference code the way its pin was made."""
    _, design, k, q, _, _ = CODES[name]
    return rgc.build_code(design(), k, q=q, seed=0, jobs=1)


def check_reference(name: str, spec) -> list[str]:
    _, _, _, _, q, pin = CODES[name]
    got = sha256(spec.to_json())
    if spec.field.q != q or got != pin:
        return [f"{name} spec (q={spec.field.q}, sha256 {got}) differs from "
                f"its pin (q={q}, sha256 {pin})"]
    return []


def percentile(values, p):
    """Nearest-rank percentile, or None without ten samples beyond it."""
    n = len(values)
    if n == 0 or n * (100 - p) / 100 < 10:
        return None
    return sorted(values)[max(1, -(-p * n // 100)) - 1]


def _fail(exc) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


# ---- input schedules ---------------------------------------------------

def schedule(workload: str, seed: int, seconds: float) -> dict:
    """Every input a run of ``workload`` uses, as plain data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "build":
        params = construction.derive_params(CODES["c9"][1](), 7)
        return {"candidates": [
            {"s": tuple(rng.randrange(SYNTH_Q)
                        for _ in range(params.T * params.M)),
             "probe_set": tuple(sorted(rng.sample(range(1, 10), 2))),
             "probe_message": tuple(rng.randrange(SYNTH_Q)
                                    for _ in range(params.M))}
            for _ in range(SYNTH_POOL)]}
    if workload in STORE_CODES:
        _, design, k, _, q, _ = CODES[STORE_CODES[workload]]
        params = construction.derive_params(design(), k)
        n = params.n
        # Reads walk one seeded order of every k-subset, over and over:
        # each pattern comes back after C(n, k) reads.  That is 36 for
        # c9, within the decode cache, and 1365 for s15, beyond it.
        reads = list(combinations(range(1, n + 1), k))
        rng.shuffle(reads)
        count = max(1000, int(seconds * STORE_OPS_PER_S))
        return {
            "messages": [tuple(rng.randrange(q) for _ in range(params.M))
                         for _ in range(MESSAGE_POOL)],
            "ops": [(i % MESSAGE_POOL, rng.randrange(1, n + 1),
                     reads[i % len(reads)]) for i in range(count)],
        }
    if workload == "cli":
        walks = []
        for _ in range(CLI_HORIZON):
            failed = rng.randrange(1, 10)
            others = rng.sample([d for d in range(1, 10) if d != failed], 6)
            walks.append({
                "message": tuple(rng.randrange(3) for _ in range(23)),
                "failed": failed,
                "read": tuple(sorted(others + [failed])),
                "soak_seed": rng.randrange(1 << 30),
            })
        return {"walks": walks}
    raise ValueError(f"unknown workload {workload!r}")


# ---- shared run bookkeeping -------------------------------------------

def calibration() -> int:
    """Fixed pure-Python work like rgc's own: modular row updates, tuple
    keyed dicts, JSON.  Its time tracks how fast the host runs now."""
    q = 40577
    row = list(range(1, 97))
    acc = [0] * 96
    for v in range(1, 41):
        acc = [(x + v * y) % q for x, y in zip(acc, row)]
    pairs = {(i, i % 7): acc[i % 96] for i in range(400)}
    return len(json.dumps(sorted(pairs.items()))) + sum(acc)


class Run:
    """Counts, latencies and failures of one workload run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.recording = False               # inside the timed window
        self.steps: dict[str, list[float]] = {}
        self.costs: dict[str, list[float]] = {}  # step time / calibration
        self.op_s: list[float] = []          # latency of each good op
        self.ops = 0
        self.window_s = 0.0
        self.traced_ops = 0
        self.traced_op_s: list[float] = []
        self.untraced_op_s: list[float] = []
        self.import_s = 0.0
        self.cal_s: list[float] = []
        self.cal_now = 0.0                   # latest calibration sample
        self._last_cal = 0.0
        self.cursor = 0                      # next unused scheduled op
        self.detail: dict[str, object] = {}

    def check(self, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("; ".join(problems))
        return not problems

    def record(self, steps) -> None:
        """Keep the steps of one good operation of the window, each as
        (name, seconds, calibration sample taken before it)."""
        if self.recording:
            self.op_s.append(sum(dt for _, dt, _ in steps))
            for name, dt, cal in steps:
                self.steps.setdefault(name, []).append(dt)
                self.costs.setdefault(name, []).append(dt / cal)

    def best_op_s(self) -> float:
        """Sum over steps of each step's fastest time in the window."""
        return sum(min(v) for v in self.steps.values())

    def op_cost(self) -> float:
        """Sum over steps of the median step time in calibration loops."""
        return sum(statistics.median(v) for v in self.costs.values())

    def tick(self, force=False) -> None:
        """Sample the calibration loop if CAL_EVERY seconds have passed.

        Called between operations and between the steps of long ones,
        never inside a timed step.
        """
        now = time.perf_counter()
        if force or now - self._last_cal >= CAL_EVERY:
            samples = []
            for _ in range(CAL_REPS):
                t0 = time.perf_counter()
                calibration()
                samples.append(time.perf_counter() - t0)
            self.cal_s += samples
            self.cal_now = min(samples)
            self._last_cal = time.perf_counter()

    def measure(self, seconds, setup, op):
        """Run operations for ``seconds`` with SETUPS set-ups spread over
        the run: one before the window, the others at even intervals in
        it and the last one after it.

        ``setup()`` returns the state the following operations use, as a
        freshly started process would have it.  ``op(i, traced, state)``
        runs the timed part of operation i and returns its check, which
        runs after tracing is switched off again.  Set-ups and checks do
        not count towards ``seconds``.  In a traced run operations
        alternate between traced and untraced, so both see the same
        program state over the window.
        """
        def timed_setup():
            recording, self.recording = self.recording, False
            t0 = time.perf_counter()
            state = setup()
            self.setup_s.append(time.perf_counter() - t0)
            self.recording = recording
            self.tick(force=True)
            return state

        state = timed_setup()
        self.recording = True
        busy = 0.0
        i = 0
        while busy < seconds or i < 2:
            if busy >= seconds * len(self.setup_s) / (SETUPS - 1):
                state = timed_setup()
            traced = self.tracer is not None and i % 2 == 1
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                finish = op(i, traced, state)
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    self.tracer.uninstall()
            (self.traced_op_s if traced else self.untraced_op_s).append(
                elapsed)
            self.traced_ops += traced
            busy += elapsed
            finish()
            self.tick()
            i += 1
        self.recording = False
        self.ops, self.window_s = i, busy
        while len(self.setup_s) < SETUPS:
            timed_setup()


# ---- build ------------------------------------------------------------

def run_build(seed, seconds, tracer=None) -> Run:
    """One op is a pass: the four reference builds, then SYNTH_PER_PASS
    seeded random S candidates over GF(31) checked with verify_S.

    A fixed number of candidates per pass, rather than a synthesis that
    stops at the first success, keeps the pass cost independent of how
    many candidates a seed happens to need.  Set-up checks the inputs:
    every design verifies and yields code parameters.
    """
    run = Run(tracer)
    cands = schedule("build", seed, seconds)["candidates"]
    c9_design = CODES["c9"][1]()
    c9_params = construction.derive_params(c9_design, 7)
    layout = construction.build_layout(c9_design)
    field = rgc.PrimeField(SYNTH_Q)
    verdicts = {"ok": 0, "failing": 0}
    rates = []

    def setup():
        made = [(code[1](), code[2]) for code in REFERENCE_CODES]
        reports = [designs.verify_design(d) for d, _ in made]
        params = [construction.derive_params(d, k) for d, k in made]
        run.check([f"design on {d.n} points fails verify_design"
                   for (d, _), r in zip(made, reports) if not r.ok]
                  + [f"design on {p.n} points has M < 1"
                     for p in params if p.M < 1])

    def op(i, traced, state):
        built, checked, sets, steps = {}, [], 0, []
        try:
            for name, design, k, q, _, _ in REFERENCE_CODES:
                t0 = time.perf_counter()
                result = rgc.build_code(design(), k, q=q, seed=0, jobs=1)
                steps.append((f"build_{name}", time.perf_counter() - t0,
                              run.cal_now))
                run.tick()
                built[name] = result.spec
                p = result.spec.params
                sets += result.attempts * comb(p.n, p.n - p.k)
            for j in range(SYNTH_PER_PASS):
                cand = cands[(i * SYNTH_PER_PASS + j) % SYNTH_POOL]
                t0 = time.perf_counter()
                spec = construction.CodeSpec(
                    params=c9_params, field=field, design=c9_design,
                    layout=layout, s_entries=cand["s"])
                report = rgc.verify_S(spec, jobs=1)
                steps.append((f"verify_gf31_{j + 1}",
                              time.perf_counter() - t0, run.cal_now))
                run.tick()
                checked.append((cand, spec, report))
                sets += report.checked
        except Exception as exc:  # recorded as a failed pass
            error = _fail(exc)
            return lambda: run.check(error)
        elapsed = sum(dt for _, dt, _ in steps)

        def finish():
            problems = []
            for name, spec in built.items():
                problems += check_reference(name, spec)
            for cand, spec, report in checked:
                problems += _check_candidate(cand, spec, report, verdicts)
            if run.check(problems):
                run.record(steps)
                rates.append(sets / elapsed)
        return finish

    run.measure(seconds, setup, op)
    run.detail.update({
        "build_s": statistics.median(run.op_s) if run.op_s else None,
        "verify_sets_per_s": statistics.median(rates) if rates else None,
        "synth_candidates_ok": verdicts["ok"],
        "synth_candidates_failing": verdicts["failing"],
    })
    return run


def _check_candidate(cand, spec, report, verdicts) -> list[str]:
    """Cross-check one verify_S verdict with the decoder on one set."""
    if report.checked != comb(9, 2):
        return [f"verify_S checked {report.checked} sets, expected 36"]
    missing = report.failures[0] if report.failures else cand["probe_set"]
    msg = rgc.MessageVector(SYNTH_Q, cand["probe_message"])
    try:
        got = codec.reconstruct(spec,
                                codec.encode(spec, msg).without(*missing))
    except ValueError:
        got = None
    if report.ok:
        verdicts["ok"] += 1
        if got != msg:
            return [f"a candidate passed verify_S but does not decode "
                    f"without disks {missing}"]
    else:
        verdicts["failing"] += 1
        if got is not None:
            return [f"a candidate failed verify_S on {missing} yet "
                    f"decoded there"]
    return []


# ---- store ------------------------------------------------------------

def store_op(run, spec, msg, failed, read, corrupt=False):
    """Timed part of one store op; returns its check.

    Encode, round-trip every share through the binary share format,
    repair one disk from the n-1 others, read one k-subset.  ``corrupt``
    flips one stored symbol before the read (used by the self-test).
    """
    q, gamma, cal = spec.field.q, spec.params.gamma, run.cal_now
    try:
        t0 = time.perf_counter()
        shares = codec.encode(spec, msg)
        t1 = time.perf_counter()
        back = codec.ShareSet(tuple(
            codec.share_from_bytes(spec, codec.share_to_bytes(spec, s))
            for s in shares))
        t2 = time.perf_counter()
        rebuilt, transcript = codec.repair(spec, failed, back.without(failed))
        t3 = time.perf_counter()
        readset = back.subset(read)
        if corrupt:
            victim = readset.shares[0]
            j, i, v = victim.symbols[0]
            readset = readset.replace(codec.DiskShare(
                disk=victim.disk,
                symbols=((j, i, (v + 1) % q),) + victim.symbols[1:]))
        got = codec.reconstruct(spec, readset)
        t4 = time.perf_counter()
    except Exception as exc:  # recorded as a failed operation
        error = _fail(exc)
        return lambda: run.check(error)

    def finish():
        problems = []
        if back != shares:
            problems.append("share bytes round trip changed a share")
        if rebuilt != shares.get(failed):
            problems.append(f"repaired disk {failed} differs from its share")
        if transcript.total_symbols != gamma:
            problems.append(f"repair moved {transcript.total_symbols} "
                            f"symbols, expected gamma = {gamma}")
        for helper, syms in transcript.helpers:
            held = shares.get(helper).value_map()
            if any(held.get((j, i)) != v for j, i, v in syms):
                problems.append(f"helper {helper} sent a coded symbol")
        if got != msg:
            problems.append(f"read of disks {read} returned another message")
        if run.check(problems):
            run.record((("encode", t1 - t0, cal), ("share_io", t2 - t1, cal),
                        ("repair", t3 - t2, cal), ("read", t4 - t3, cal)))
    return finish


def run_store(workload, seed, seconds, tracer=None) -> Run:
    """One op: encode, share bytes round trip, repair, read.

    Set-up is what a fresh store process does: load the saved code spec
    and run the next WARMUP_OPS operations of the schedule, from empty
    caches.  Set-ups and the window take operations from one cursor, so
    every read pattern comes back after exactly C(n, k) reads.
    """
    run = Run(tracer)
    sched = schedule(workload, seed, seconds)
    name = STORE_CODES[workload]
    msgs = [rgc.MessageVector(CODES[name][4], m) for m in sched["messages"]]
    ops = sched["ops"]

    def setup():
        clear_caches()
        spec = rgc.CodeSpec.load(SPECS / f"{name}.json")
        run.check(check_reference(name, spec))
        for _ in range(WARMUP_OPS):
            store_op(run, spec, *next_op())()
        return spec

    def next_op():
        m, failed, read = ops[run.cursor % len(ops)]
        run.cursor += 1
        return msgs[m], failed, read

    def op(i, traced, spec):
        return store_op(run, spec, *next_op())

    run.measure(seconds, setup, op)
    series = dict(run.steps, op=run.op_s)
    for part, values in series.items():
        vals = [v * 1e3 for v in values]
        run.detail[f"{part}_p50_ms"] = percentile(vals, 50)
        run.detail[f"{part}_p99_ms"] = percentile(vals, 99)
    run.detail["samples"] = len(run.op_s)
    return run


# ---- cli --------------------------------------------------------------

def walkthrough(work: Path, walk: dict):
    """The README CLI walkthrough as (command name, argv) pairs."""
    d9, c9, code = work / "d9.json", work / "c9.json", work / "code.json"
    msg, shares = work / "msg.txt", work / "shares"
    failed = str(walk["failed"])
    return (
        ("design-gen-steiner", ["design", "gen", "--steiner-triple", "--n",
                                "9", "--out", str(d9)]),
        ("design-verify", ["design", "verify", "--design", str(d9)]),
        ("code-build", ["code", "build", "--design", str(d9), "--k", "7",
                        "--q", "3", "--out", str(code)]),
        ("code-inspect", ["code", "inspect", "--spec", str(code)]),
        ("encode", ["encode", "--spec", str(code), "--message", str(msg),
                    "--out-dir", str(shares)]),
        ("repair", ["repair", "--spec", str(code), "--failed", failed,
                    "--shares", str(shares), "--out",
                    str(shares / f"disk_{failed}.share"), "--transcript",
                    str(work / "t.json")]),
        ("reconstruct", ["reconstruct", "--spec", str(code), "--shares",
                         str(shares), "--disks",
                         ",".join(map(str, walk["read"])), "--out",
                         str(work / "back.txt")]),
        ("analyze-tradeoff", ["analyze", "tradeoff", "--n", "9", "--k", "7",
                              "--d", "8"]),
        ("analyze-exponents", ["analyze", "exponents", "--tau1", "1",
                               "--tau2", "1", "--epsilon", "1/2",
                               "--n-list", "64,256"]),
        ("design-gen-complete", ["design", "gen", "--complete", "--t", "2",
                                 "--r", "3", "--n", "9", "--out", str(c9)]),
        ("analyze-compare", ["analyze", "compare", "--design1", str(d9),
                             "--design2", str(c9), "--k", "7"]),
        ("sim-soak", ["sim", "soak", "--spec", str(code), "--message",
                      str(msg), "--steps", str(SOAK_STEPS), "--seed",
                      str(walk["soak_seed"])]),
    )


# sha256 of the walkthrough outputs that do not depend on the seed
CLI_PINS = {
    "d9.json":
        "58d7b4e4f35fab12a69f182b169f938d8749f0b839a685cfe6d51ce83f3e7e5c",
    "c9.json":
        "0432afac247954845c5ab13a4cdcb8fdd29cfb8b3c0c872151d74ca46cfcf5c1",
    "code.json":
        "fd86ca6461da9ddb217e55ab7b6a507701a4e6a1d1e22b876d42b2725caf6b58",
    "design-verify":
        "15cff1f2338e417d5b34d7da40c37e6b41ec732ac71b16781a2d0b7f374dd6db",
    "code-inspect":
        "16b8bc0db22486f5e37078b0e6731ef61be99f6bbb6ac57254dddc6efa5c34a6",
    "analyze-tradeoff":
        "54c5a80b3678f8ea7d5a8721be2c138c18938c9b2d576dd441d98438deddfa40",
    "analyze-exponents":
        "e5be926b13641ddc4be87765d9b273ed7dd0fffa17305e93ba9cbc40f1bac657",
    "analyze-compare":
        "c8e1aa1155f0734c006d0025929b7e3fea4312e232d2bece7595ee884d2d9312",
}


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_subprocess(argv, env):
    proc = subprocess.run([sys.executable, "-m", "rgc.cli", *argv], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=120, check=False)
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


def run_inprocess(argv, env):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_dispatch(argv)
    return code, out.getvalue()


def cli_walk(run, work: Path, walk: dict, runner, env, traced=False):
    """Timed part of one walkthrough in a fresh directory; returns its
    check."""
    if work.exists():
        shutil.rmtree(work)
    (work / "shares").mkdir(parents=True)
    msg_text = " ".join(map(str, walk["message"])) + "\n"
    (work / "msg.txt").write_text(msg_text, encoding="utf-8")
    share_file = work / "shares" / f"disk_{walk['failed']}.share"
    outputs, steps, original = {}, [], None
    for name, argv in walkthrough(work, walk):
        if name == "repair":
            original = share_file.read_bytes()
            share_file.unlink()
        clear_caches()  # each command is a fresh process in real use
        t0 = time.perf_counter()
        try:
            with (run.tracer.span(f"cli.{name}") if traced
                  else contextlib.nullcontext()):
                code, out = runner(argv, env)
        except Exception as exc:  # recorded as a failed walkthrough
            code, out = None, repr(exc)
        steps.append((name, time.perf_counter() - t0, run.cal_now))
        run.tick()
        outputs[name] = out
        if code != 0:
            error = [f"{name} exited {code}: {out[-200:]}"]
            return lambda: run.check(error)

    def finish():
        if run.check(_check_walk(work, walk, outputs, original, msg_text)):
            run.record(steps)
    return finish


def _check_walk(work, walk, outputs, original, msg_text):
    problems = []
    for name, pin in CLI_PINS.items():
        data = ((work / name).read_bytes() if name.endswith(".json")
                else outputs[name])
        if sha256(data) != pin:
            problems.append(f"{name} output differs from its pin")
    failed = walk["failed"]
    if (work / "shares" / f"disk_{failed}.share").read_bytes() != original:
        problems.append(f"repaired disk {failed} file differs")
    transcript = json.loads((work / "t.json").read_text(encoding="utf-8"))
    if transcript["total_symbols"] != 8:
        problems.append(f"repair moved {transcript['total_symbols']} "
                        f"symbols, expected 8")
    spec = rgc.CodeSpec.load(work / "code.json")
    for helper in transcript["helpers"]:
        held = rgc.read_share(spec, work / "shares" /
                              f"disk_{helper['disk']}.share").value_map()
        if any(held.get((j, i)) != v for j, i, v in helper["symbols"]):
            problems.append(f"helper {helper['disk']} sent a coded symbol")
    if (work / "back.txt").read_text(encoding="utf-8") != msg_text:
        problems.append("reconstructed message differs")
    soak = json.loads(outputs["sim-soak"])
    if (soak["mismatches"] != 0 or not soak["all_ok"]
            or soak["repairs"] != SOAK_STEPS):
        problems.append("soak reported mismatches")
    return problems


def _interpreter_s(code, env, reps=5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env,
                       stdin=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return min(times)


def run_cli(seed, seconds, tracer=None) -> Run:
    """One op is one walkthrough: one subprocess per command untraced,
    ``cli_dispatch`` in-process when traced.

    Set-up makes an empty work directory and starts one interpreter that
    imports ``rgc.cli``.
    """
    run = Run(tracer)
    walks = schedule("cli", seed, seconds)["walks"]
    env = subprocess_env()
    base = ROOT / ".perfbench-work" / f"cli-{os.getpid()}"
    runner = run_subprocess if tracer is None else run_inprocess

    def setup():
        shutil.rmtree(base, ignore_errors=True)
        base.mkdir(parents=True)
        subprocess.run([sys.executable, "-c", "import rgc.cli"], env=env,
                       stdin=subprocess.DEVNULL, check=True)

    try:
        if tracer is not None:
            run.import_s = (_interpreter_s("import rgc.cli", env)
                            - _interpreter_s("pass", env))
        run.measure(seconds, setup, lambda i, traced, state: cli_walk(
            run, base / "walk", walks[i % len(walks)], runner, env, traced))
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()
    run.detail["cli_walkthrough_s"] = (statistics.median(run.op_s)
                                       if run.op_s else None)
    for name, vals in run.steps.items():
        run.detail[f"{name}_p50_ms"] = statistics.median(vals) * 1e3
    return run


def run_workload(workload, seed, seconds, tracer=None) -> Run:
    if workload == "build":
        return run_build(seed, seconds, tracer)
    if workload in STORE_CODES:
        return run_store(workload, seed, seconds, tracer)
    if workload == "cli":
        return run_cli(seed, seconds, tracer)
    raise ValueError(f"unknown workload {workload!r}")
