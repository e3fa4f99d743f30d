"""tilecast: minimum-power transmission planning for multicast streaming of
tiled panoramic video over a multi-antenna OFDMA downlink.

The pipeline: viewport geometry tells which tiles each viewer needs; the
exact-audience partition turns shared tiles into multicast messages; per
message and subcarrier a beamformer yields a power quote; an allocator
assigns subcarriers and splits power by water-filling. The general-case
planner quotes each pair on its max-min-fair beam (closed form up to two
users, a convex-concave procedure beyond) and allocates on those quotes.
"""

from .geometry import TileId, TilingConfig, ViewDirection, compute_tile_set
from .partition import Message, QualityLadder, build_messages, \
    build_partition, unicast_messages
from .channel import ChannelState, derive_trial_seed, sample_channel
from .beamforming import BeamPlan, beam_plan_asymptotic, beam_plan_maxmin, \
    beam_plan_mrt
from .ofdma_alloc import (Allocation, InfeasibleAllocationError,
                          audit_allocation, brute_force_allocation,
                          complete_allocation, solve_quoted_allocation)
from .dc_solver import dc_solve, initial_point
from .harness import (CSV_HEADER, SCHEMES, ScenarioConfig, TrialResult,
                      UserSpec, config_from_dict, config_to_dict,
                      default_config, run_experiment, run_trial,
                      shift_directions, sweep_values)

__version__ = "0.1.0"

__all__ = [
    "TileId", "TilingConfig", "ViewDirection", "compute_tile_set",
    "Message", "QualityLadder", "build_messages", "build_partition",
    "unicast_messages",
    "ChannelState", "derive_trial_seed", "sample_channel",
    "BeamPlan", "beam_plan_asymptotic", "beam_plan_maxmin", "beam_plan_mrt",
    "Allocation", "InfeasibleAllocationError", "audit_allocation",
    "brute_force_allocation", "complete_allocation", "solve_quoted_allocation",
    "dc_solve", "initial_point",
    "CSV_HEADER", "SCHEMES", "ScenarioConfig", "TrialResult", "UserSpec",
    "config_from_dict", "config_to_dict", "default_config",
    "run_experiment", "run_trial", "shift_directions", "sweep_values",
    "__version__",
]
