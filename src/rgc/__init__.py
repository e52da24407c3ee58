"""Layered exact-repair regenerating codes over prime fields.

Two nested erasure layers are stitched together by a combinatorial
block design: a short MDS code spreads each block's symbols across its
disks, and a long parity layer ties the blocks together so any k disks
recover the data and any single disk is rebuilt by plain copying.

``import rgc`` registers every library submodule but ``cli`` in
``sys.modules`` through ``importlib.util.LazyLoader``, so a submodule's
body runs only when one of its attributes is first used, and a CLI
command runs only the modules it needs.  The names in ``__all__``
resolve on access (PEP 562) from ``_EXPORTS``; nothing is cached here,
so a monkeypatch of ``rgc.codec.encode`` is what ``rgc.encode``
returns.  ``python -X importtime -m rgc.cli ...`` shows the
standard-library imports a command pays for, and ``python -v -m
rgc.cli ...`` prints a "code object from" line for each rgc module
that ran.
"""

import importlib.util
import sys

# module -> the names it exports at package level
_EXPORTS = {
    "designs": (
        "BlockDesign", "DesignReport", "CATALOG", "gen_steiner_triple",
        "gen_complete_design", "is_complete_design", "closed_form_Tc",
        "verify_design", "load_design", "save_design"),
    "ffield": ("PrimeField", "next_prime"),
    "codespec": ("CodeParams", "CodeSpec", "Layout"),
    "construction": (
        "BuildResult", "VerifyReport", "BudgetExceededError",
        "SynthesisError", "WitnessError", "build_code",
        "build_explicit_steiner_code", "derive_params", "compute_T",
        "compute_TA", "synthesize_S", "verify_S", "rank_witness"),
    "codec": (
        "MessageVector", "DiskShare", "ShareSet", "RepairTranscript",
        "ShareFormatError", "CorruptionError", "encode", "repair",
        "reconstruct", "read_share", "write_share"),
    "analysis": (
        "TradeoffPoint", "TradeoffRow", "CompareReport", "ExponentPoint",
        "RegionMembership", "ParameterRegimeWarning", "cutset_max_M",
        "msr_mbr_points", "timesharing_M", "regime_threshold",
        "complete_tradeoff_point", "sweep_tradeoff", "realized_point",
        "compare_designs", "exponent_point", "exponent_region_membership"),
    "storesim": (
        "Cluster", "Scenario", "ScenarioEvent", "SimulationReport",
        "run_scenario", "random_failure_soak"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def _lazy(name):
    """Register rgc.<name> in sys.modules; its body runs on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# not cli: python -m rgc.cli would then run it twice, and runpy warns
_kernel = _lazy("_kernel")
ffield = _lazy("ffield")
designs = _lazy("designs")
codespec = _lazy("codespec")
construction = _lazy("construction")
codec = _lazy("codec")
analysis = _lazy("analysis")
storesim = _lazy("storesim")


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_HOME})
