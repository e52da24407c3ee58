"""Layered exact-repair regenerating codes over prime fields.

Two nested erasure layers are stitched together by a combinatorial
block design: a short MDS code spreads each block's symbols across its
disks, and a long parity layer ties the blocks together so any k disks
recover the data and any single disk is rebuilt by plain copying.
"""

from .analysis import (CompareReport, ExponentPoint, ParameterRegimeWarning,
                       RegionMembership, TradeoffPoint, TradeoffRow,
                       compare_designs, complete_tradeoff_point,
                       cutset_max_M, exponent_point,
                       exponent_region_membership, msr_mbr_points,
                       realized_point, regime_threshold, sweep_tradeoff,
                       timesharing_M)
from .codec import (CorruptionError, DiskShare, MessageVector,
                    RepairTranscript, ShareFormatError, ShareSet, encode,
                    read_share, reconstruct, repair, write_share)
from .construction import (BudgetExceededError, BuildResult, CodeParams,
                           CodeSpec, Layout, SynthesisError, VerifyReport,
                           WitnessError, build_code,
                           build_explicit_steiner_code, closed_form_Tc,
                           compute_T, compute_TA, derive_params,
                           rank_witness, synthesize_S, verify_S)
from .designs import (CATALOG, BlockDesign, DesignReport, gen_complete_design,
                      gen_steiner_triple, is_complete_design, load_design,
                      save_design, verify_design)
from .ffield import PrimeField, next_prime
from .storesim import (Cluster, Scenario, ScenarioEvent, SimulationReport,
                       random_failure_soak, run_scenario)

__version__ = "0.1.0"

__all__ = [
    "BlockDesign", "DesignReport", "CATALOG", "gen_steiner_triple",
    "gen_complete_design", "is_complete_design", "verify_design",
    "load_design", "save_design",
    "PrimeField", "next_prime",
    "CodeParams", "CodeSpec", "Layout", "BuildResult",
    "VerifyReport", "BudgetExceededError", "SynthesisError", "WitnessError",
    "build_code", "build_explicit_steiner_code", "derive_params",
    "compute_T", "compute_TA", "closed_form_Tc", "synthesize_S",
    "verify_S", "rank_witness",
    "MessageVector", "DiskShare", "ShareSet", "RepairTranscript",
    "ShareFormatError", "CorruptionError", "encode", "repair",
    "reconstruct", "read_share", "write_share",
    "TradeoffPoint", "TradeoffRow", "CompareReport", "ExponentPoint",
    "RegionMembership", "ParameterRegimeWarning", "cutset_max_M",
    "msr_mbr_points", "timesharing_M", "regime_threshold",
    "complete_tradeoff_point", "sweep_tradeoff", "realized_point",
    "compare_designs", "exponent_point", "exponent_region_membership",
    "Cluster", "Scenario", "ScenarioEvent", "SimulationReport",
    "run_scenario", "random_failure_soak",
    "__version__",
]
