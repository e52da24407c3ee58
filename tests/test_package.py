"""The package surface: every exported name resolves to its module's own
object, submodule bodies run only when used, and no module imports a
name it does not use."""

import ast
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import rgc
from rgc.codec import MessageVector, encode, write_share
from rgc.construction import (build_code, derive_params, synthesize_S,
                              verify_S)
from rgc.designs import BlockDesign, gen_complete_design, gen_steiner_triple
from rgc.ffield import PrimeField
from rgc.storesim import random_failure_soak

SRC = pathlib.Path(rgc.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SUBMODULES = ("_kernel", "ffield", "designs", "construction", "codec",
              "analysis", "storesim")


def test_every_exported_name_resolves():
    missing = [name for name in rgc.__all__ if not hasattr(rgc, name)]
    assert not missing
    assert len(set(rgc.__all__)) == len(rgc.__all__)


def test_exported_names_are_their_modules_objects():
    for name in rgc.__all__:
        if name == "__version__":
            continue
        home = f"rgc.{rgc._HOME[name]}"
        obj = getattr(rgc, name)
        assert obj is getattr(sys.modules[home], name), name
        # the table names the module that defines the object
        assert getattr(obj, "__module__", home) == home, name
    assert set(rgc.__all__) <= set(dir(rgc))


def test_package_caches_no_exported_name():
    assert not set(rgc._HOME) & set(vars(rgc))


def test_star_import():
    namespace = {}
    exec("from rgc import *", namespace)
    assert set(rgc.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(rgc, "nope")


def test_submodules_are_attributes_and_registered():
    for name in SUBMODULES:
        module = getattr(rgc, name)
        assert sys.modules[f"rgc.{name}"] is module
    assert rgc.codec.encode is rgc.encode
    assert rgc.designs.closed_form_Tc is rgc.construction.closed_form_Tc


def test_monkeypatch_of_a_module_is_seen_through_the_package(monkeypatch):
    real = rgc.codec.encode

    def spy(*args, **kwargs):
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(rgc.codec, "encode", spy)
        assert rgc.encode is spy
        namespace = {}
        exec("from rgc import encode", namespace)
        assert namespace["encode"] is spy
    assert rgc.encode is real


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=False)


def test_module_cli_help_raises_no_warning():
    """python -m rgc.cli imports rgc.cli once: runpy warns (an error
    here) when the package already put it in sys.modules."""
    proc = _run("-W", "error", "-m", "rgc.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# Runs one command in a fresh interpreter.  Prints its exit code and the
# rgc modules whose body ran (a lazy stub is a ModuleType subclass until
# first use), then, on a second line, which of the standard-library
# modules named in argv[1] the command imported.
_PROBE = """
import contextlib, io, sys, types
from rgc.cli import cli_dispatch
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = cli_dispatch(sys.argv[2:])
print(code, *sorted(name for name, module in sys.modules.items()
                    if name.startswith("rgc.")
                    and type(module) is types.ModuleType))
print(*[name for name in sys.argv[1].split(",") if name in sys.modules])
"""

# dataclasses builds methods from source text when a class is made; no
# command imports it.  fractions is imported only where analysis runs.
_STDLIB = ("dataclasses", "fractions")
_FRACTIONS = {"fractions"}


@pytest.fixture(scope="module")
def walk_dir(tmp_path_factory):
    """The inputs of the README walkthrough: the S(2,3,9) design, the
    complete(2,3,9) design, the k=7 code over GF(3), a message and its
    shares."""
    root = tmp_path_factory.mktemp("walk")
    design = gen_steiner_triple(9)
    (root / "d9.json").write_text(design.to_json(), encoding="utf-8")
    (root / "c9.json").write_text(gen_complete_design(2, 3, 9).to_json(),
                                  encoding="utf-8")
    spec = build_code(design, 7, q=3).spec
    spec.save(root / "code.json")
    msg = MessageVector.random(3, spec.params.M, seed=1)
    (root / "msg.txt").write_text(msg.to_text(), encoding="utf-8")
    (root / "shares").mkdir()
    for share in encode(spec, msg):
        write_share(spec, share,
                    root / "shares" / f"disk_{share.disk}.share")
    return root


@pytest.mark.parametrize("argv, only, absent, stdlib", [
    pytest.param(["design", "gen", "--steiner-triple", "--n", "9"],
                 {"designs", "_record"}, None, set(), id="design-gen"),
    pytest.param(["design", "verify", "--design", "{w}/d9.json"],
                 {"designs", "_record"}, None, set(), id="design-verify"),
    pytest.param(["code", "build", "--design", "{w}/d9.json", "--k", "7",
                  "--q", "3", "--out", os.devnull],
                 None, {"codec", "storesim", "analysis"}, set(),
                 id="code-build"),
    pytest.param(["code", "inspect", "--spec", "{w}/code.json"],
                 None, {"codec", "storesim"}, _FRACTIONS, id="code-inspect"),
    pytest.param(["encode", "--spec", "{w}/code.json", "--message",
                  "{w}/msg.txt", "--out-dir", "{w}/encoded"],
                 None, {"analysis", "storesim"}, set(), id="encode"),
    pytest.param(["repair", "--spec", "{w}/code.json", "--failed", "4",
                  "--shares", "{w}/shares", "--out", "{w}/rebuilt.share",
                  "--transcript", "{w}/t.json"],
                 None, {"analysis", "storesim"}, set(), id="repair"),
    pytest.param(["reconstruct", "--spec", "{w}/code.json", "--shares",
                  "{w}/shares", "--disks", "1,2,3,4,5,6,7", "--out",
                  os.devnull],
                 None, {"analysis", "storesim"}, set(), id="reconstruct"),
    pytest.param(["analyze", "tradeoff", "--n", "9", "--k", "7", "--d", "8"],
                 None, {"construction", "codec"}, _FRACTIONS,
                 id="analyze-tradeoff"),
    pytest.param(["analyze", "exponents", "--tau1", "3", "--tau2", "2",
                  "--epsilon", "1/2", "--n-list", "10,20"],
                 None, {"construction", "codec"}, _FRACTIONS,
                 id="analyze-exponents"),
    pytest.param(["design", "gen", "--complete", "--t", "2", "--r", "3",
                  "--n", "9"],
                 {"designs", "_record"}, None, set(),
                 id="design-gen-complete"),
    pytest.param(["analyze", "compare", "--design1", "{w}/d9.json",
                  "--design2", "{w}/c9.json", "--k", "7"],
                 None, {"codec", "storesim"}, _FRACTIONS,
                 id="analyze-compare"),
    pytest.param(["sim", "soak", "--spec", "{w}/code.json", "--message",
                  "{w}/msg.txt", "--steps", "20", "--seed", "3"],
                 None, {"analysis"}, set(), id="sim-soak"),
])
def test_command_runs_only_the_modules_it_uses(walk_dir, argv, only, absent,
                                               stdlib):
    argv = [a.format(w=walk_dir) for a in argv]
    proc = _run("-c", _PROBE, ",".join(_STDLIB), *argv)
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    code, *ran = first.split()
    assert code == "0"
    ran = {name.removeprefix("rgc.") for name in ran} - {"cli"}
    if only is not None:
        assert ran == only
    if absent is not None:
        assert not ran & absent, ran
    assert set(second.split()) == stdlib


def test_no_unused_module_imports():
    """Every module-level import under src/rgc/ is used in its module
    (__future__ imports aside)."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.split(".")[0]
                             for a in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(bound - used)]
    assert not unused


def test_no_unused_private_helpers():
    """Every module-level private function or class under src/rgc/ is
    loaded somewhere under src/rgc/, so no dead helper is left behind."""
    defined, loaded = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(
            (path.name, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    assert ("construction.py", "_walk") in defined
    assert sorted(f"{module}: {name}" for module, name in defined
                  if name not in loaded) == []


def test_unchecked_share_constructor_stays_in_three_callers():
    """codec._checked_share makes a share without DiskShare's checks or
    check_share's, which hold only where the slots come from the layout
    and the values are reduced mod q: in encode, repair and the layout
    match of share_from_bytes.  No other code under src/rgc/ names it."""
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (path.name, getattr(top, "name", None))
            users.update(owner for node in ast.walk(top)
                         if (isinstance(node, ast.Name)
                             and node.id == "_checked_share")
                         or (isinstance(node, ast.Attribute)
                             and node.attr == "_checked_share"))
    assert users == {("codec.py", "encode"), ("codec.py", "repair"),
                     ("codec.py", "share_from_bytes")}


def test_a_failing_hypothesis_test_does_not_abort_the_run(pytester):
    """Under the project's pytest settings, where a warning is an error,
    a failing @given test is reported as one failure with its falsifying
    example, and the test after it still runs: a warning raised while
    hypothesis reports the failure must not end the session."""
    pytester.makefile(".toml", pyproject=(ROOT / "pyproject.toml")
                      .read_text(encoding="utf-8"))
    pytester.makepyfile(test_probe="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider",
                                           "test_probe.py")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
    assert "INTERNALERROR" not in result.stdout.str()


def test_no_source_line_exceeds_79_characters():
    """Every line under src/rgc/ fits in 79 characters, so a line count
    cannot shrink by packing code onto fewer lines."""
    long_lines = [f"{path.name}:{number}"
                  for path in sorted(SRC.glob("*.py"))
                  for number, line in enumerate(
                      path.read_text(encoding="utf-8").splitlines(), 1)
                  if len(line) > 79]
    assert long_lines == []


def test_sources_parse_at_the_declared_python_floor():
    """pyproject.toml declares requires-python >= 3.10, so every module
    under src/rgc/ must parse with the 3.10 grammar."""
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_integer_arguments_refuse_other_types(golden_spec):
    """A count, size, seed or modulus that the library writes out or
    seeds a generator with is exactly an int: a bool, float or None is
    refused with a ValueError naming the argument and its type, not
    written as 9.0 or true, turned into 1, or left to OS entropy."""
    sts9 = gen_steiner_triple(9)
    c6 = gen_complete_design(2, 3, 6)
    msg = MessageVector.random(3, golden_spec.params.M, seed=1)
    cases = [
        ("design n 9.0 is a float", lambda: BlockDesign(
            n=9.0, t=2, r=3, lam=1, blocks=sts9.blocks)),
        ("design lam True is a bool", lambda: BlockDesign(
            n=9, t=2, r=3, lam=True, blocks=sts9.blocks)),
        ("block (1.0, 2, 3) point 1.0 is a float", lambda: BlockDesign(
            n=9, t=2, r=3, lam=1, blocks=((1.0, 2, 3),) + sts9.blocks[1:])),
        ("block (True, 4, 7) point True is a bool", lambda: BlockDesign(
            n=9, t=2, r=3, lam=1,
            blocks=sts9.blocks[:1] + ((True, 4, 7),) + sts9.blocks[2:])),
        ("modulus 7.0 is a float", lambda: PrimeField(7.0)),
        ("k True is a bool", lambda: build_code(c6, True)),
        ("k 4.0 is a float", lambda: build_code(c6, 4.0)),
        ("k True is a bool", lambda: derive_params(c6, True)),
        ("budget 2.5 is a float", lambda: build_code(c6, 4, budget=2.5)),
        ("seed None is a NoneType", lambda: build_code(c6, 4, seed=None)),
        ("seed None is a NoneType", lambda: synthesize_S(
            derive_params(c6, 4), c6, PrimeField(31), seed=None)),
        ("sample 2.5 is a float", lambda: verify_S(golden_spec,
                                                   sample=2.5)),
        ("seed None is a NoneType", lambda: verify_S(
            golden_spec, sample=2, seed=None)),
        ("steps True is a bool", lambda: random_failure_soak(
            golden_spec, msg, True)),
        ("steps 2.0 is a float", lambda: random_failure_soak(
            golden_spec, msg, 2.0)),
        ("seed None is a NoneType", lambda: random_failure_soak(
            golden_spec, msg, 2, seed=None)),
        ("length 2.0 is a float", lambda: MessageVector.random(3, 2.0)),
        ("seed None is a NoneType", lambda: MessageVector.random(
            3, 2, seed=None)),
    ]
    for want, call in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"{want}, not an int"


def test_no_module_imports_dataclasses():
    """Records come from _record, which builds its methods as closures:
    no module under src/rgc/ imports dataclasses, and _record calls no
    exec, eval or compile."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert not importers
    tree = ast.parse((SRC / "_record.py").read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)}
    assert not called & {"exec", "eval", "compile"}
    assert "attrgetter" in called


def test_benchmark_tracer_targets_resolve():
    """After import rgc, every function the benchmark tracer wraps
    resolves, and every argument a hook reads by name is a parameter of
    its target, so a refactor cannot silently drop a traced layer."""
    loader = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    reads = {fn.name: {node.slice.value for node in ast.walk(fn)
                       if isinstance(node, ast.Subscript)
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "bound"
                       and isinstance(node.slice, ast.Constant)}
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert reads["_encode"] == {"spec"}
    for modname, path, name, _, bound_hook in spans.TARGETS:
        _, fn = spans._resolve(modname, path)
        assert callable(fn), name
        if bound_hook is not None:
            params = set(inspect.signature(fn).parameters)
            assert reads[bound_hook.__name__] <= params, (path, params)
    names = {target[2] for target in spans.TARGETS}
    assert {"codec.encode", "codec.share_io"} <= names
    spans.Tracer()   # binds every hooked signature
