"""The package surface: every exported name resolves to its module's own
object, submodule bodies run only when used, and no module imports a
name it does not use."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import rgc
from rgc.designs import gen_steiner_triple

SRC = pathlib.Path(rgc.__file__).parent
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


# Runs one command in a fresh interpreter and prints the rgc modules
# whose body ran: a lazy stub is a ModuleType subclass until first use.
_PROBE = """
import contextlib, io, sys, types
from rgc.cli import cli_dispatch
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = cli_dispatch(sys.argv[1:])
print(code, *sorted(name for name, module in sys.modules.items()
                    if name.startswith("rgc.")
                    and type(module) is types.ModuleType))
"""


@pytest.fixture(scope="module")
def design_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("design") / "s9.json"
    path.write_text(gen_steiner_triple(9).to_json(), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, only, absent", [
    pytest.param(["design", "gen", "--steiner-triple", "--n", "9"],
                 {"designs"}, None, id="design-gen"),
    pytest.param(["design", "verify", "--design", "{design}"],
                 {"designs"}, None, id="design-verify"),
    pytest.param(["analyze", "tradeoff", "--n", "9", "--k", "7", "--d", "8"],
                 None, {"construction", "codec"}, id="analyze-tradeoff"),
    pytest.param(["analyze", "exponents", "--tau1", "3", "--tau2", "2",
                  "--epsilon", "1/2", "--n-list", "10,20"],
                 None, {"construction", "codec"}, id="analyze-exponents"),
    pytest.param(["code", "build", "--design", "{design}", "--k", "7",
                  "--q", "3", "--out", os.devnull],
                 None, {"codec", "storesim"}, id="code-build"),
])
def test_command_runs_only_the_modules_it_uses(design_file, argv, only,
                                               absent):
    argv = [a.format(design=design_file) for a in argv]
    proc = _run("-c", _PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    code, *ran = proc.stdout.split()
    assert code == "0"
    ran = {name.removeprefix("rgc.") for name in ran} - {"cli"}
    if only is not None:
        assert ran == only
    if absent is not None:
        assert not ran & absent, ran


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
