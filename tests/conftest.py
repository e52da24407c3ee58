"""Shared fixtures plus a terminal reporter that prints one PASS/FAIL
line per acceptance criterion at the end of the run."""

import random

import pytest

from rgc.codespec import CodeSpec, build_layout
from rgc.construction import build_code, derive_params, verify_S
from rgc.designs import gen_complete_design, gen_steiner_triple
from rgc.ffield import PrimeField

# criterion number -> (summary line, runtime budget in seconds)
_CRITERIA = {
    1: ("triple-system (9,7,8) code: exact parameters, every single-disk "
        "repair moves 1 symbol per helper, every 2-erasure decode is exact",
        5.0),
    2: ("tradeoff sweep reproduces the pinned (r, alpha_bar, M_bar) rows, "
        "the above-time-sharing flags, and the bandwidth-optimal endpoint",
        1.0),
    3: ("complete-design (9,7) code hits alpha=28 beta=7 M=161 and ties "
        "the triple-system code at (4, 23)", 10.0),
    4: ("long-parity synthesis at the existence threshold: verified S "
        "within 5 attempts for 10 seeds; random-draw failure fraction "
        "within 3x the union bound", 600.0),
    5: ("rank witness achieves a full-rank long parity for every "
        "2-erasure set on both reference codes", 30.0),
    6: ("every erasure set's deficit equals the closed form on every "
        "complete design with t = 2, n <= 10 and t = 3, n <= 8", 60.0),
    7: ("every swept point (n <= 12) and every built code satisfies the "
        "cut-set bound; r=2 collapses to the bandwidth-optimal point",
        30.0),
    8: ("exponent samples satisfy the storage/repair bound pair exactly "
        "and the region gap shrinks with n", 10.0),
    9: ("1000-cycle failure soak: zero divergence, balanced ledger, "
        "8 symbols moved per repair", 30.0),
}

_results: dict[int, tuple[str, float]] = {}

pytest_plugins = ("pytester",)


def parity_block(spec, j, kernel):
    """Group j's T x f block of [S | -I] K_A, as f column tuples: the
    long-layer parity checks applied to the group's flat m x f kernel
    basis by plain T-wide arithmetic on spec.parity_columns.  Tests use
    it as the reference for the lane sums a read takes instead."""
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


def plan(spec, disks, groups=None) -> list[tuple]:
    """(j, used, surplus) for each group j of `groups` (all, by default)
    when the disks `disks` are held: used is the group's lowest m held
    rows and surplus the held rows beyond them, as row tuples.  A group
    using fewer than m rows is heavy; group_decoder gives its kernel.

    Only the groups on disks not held are worked out, from their lost-row
    masks (Layout.lost_rows); every other group shares the one split
    (rows 0..m-1, rows m..r-1).  Tests use it as the reference for the
    (used, surplus) half of codespec.group_decoder, which every caller
    in the library goes through.
    """
    p = spec.params
    lost = spec.layout.lost_rows(x for x in range(1, p.n + 1)
                                 if x not in disks)
    splits = {}     # lost-row mask -> (used, surplus)
    for h in {0, *lost.values()}:
        held = tuple(i for i in range(p.r) if not h >> i & 1)
        splits[h] = held[:p.m], held[p.m:]
    return [(j, *splits[lost.get(j, 0)])
            for j in (range(p.nstar) if groups is None else groups)]


def lost_mask(spec, rows) -> int:
    """The lost-row mask of a group that holds exactly the rows `rows`:
    the key group_decoder takes."""
    return (1 << spec.params.r) - 1 ^ sum(1 << i for i in rows)


def _criterion_number(nodeid: str) -> int | None:
    name = nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return None
    tail = name[len("test_criterion_"):].split("[")[0]
    return int(tail) if tail.isdigit() else None


def pytest_runtest_logreport(report):
    num = _criterion_number(report.nodeid)
    if num is None:
        return
    if report.when == "call" or (report.when == "setup" and report.failed):
        _results[num] = (report.outcome, report.duration)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        desc, budget = _CRITERIA[num]
        if num in _results:
            outcome, took = _results[num]
            verdict = {"passed": "PASS", "failed": "FAIL",
                       "skipped": "SKIP"}.get(outcome, outcome.upper())
            timing = f" [{took:.2f}s, budget {budget:g}s]"
        else:
            verdict, timing = "NOT RUN", ""
        tr.write_line(f"ACCEPTANCE CRITERION {num}: {verdict} - "
                      f"{desc}{timing}")


@pytest.fixture(scope="session")
def golden_spec():
    """(9,7,8) code on the 12-block triple system over GF(3)."""
    return build_code(gen_steiner_triple(9), 7, q=3).spec


@pytest.fixture(scope="session")
def complete9_build():
    """k=7 code on the complete S_7(2,3,9), field chosen automatically."""
    return build_code(gen_complete_design(2, 3, 9), 7, q="auto", seed=0)


@pytest.fixture(scope="session")
def complete9_spec(complete9_build):
    return complete9_build.spec


@pytest.fixture(scope="session")
def t3_spec():
    """Deeper-layer sample: complete S_4(3,4,7), k=4 (t=3, m=2)."""
    return build_code(gen_complete_design(3, 4, 7), 4, q="auto",
                      seed=0).spec


@pytest.fixture(scope="session")
def s15_spec():
    """Steiner S(2,3,15) code with k=11, field chosen automatically."""
    return build_code(gen_steiner_triple(15), 11, q="auto", seed=0).spec


@pytest.fixture(scope="session")
def failing_c9_spec():
    """A GF(31) complete(2,3,9) k=7 candidate that fails the rank
    condition on exactly the erasure set (7, 8): the second S drawn from
    random.Random(1)."""
    design = gen_complete_design(2, 3, 9)
    params = derive_params(design, 7)
    rng = random.Random(1)
    draws = [tuple(rng.randrange(31) for _ in range(params.T * params.M))
             for _ in range(2)]
    spec = CodeSpec(params=params, field=PrimeField(31), design=design,
                    layout=build_layout(design), s_entries=draws[1])
    assert verify_S(spec).failures == ((7, 8),)
    return spec
