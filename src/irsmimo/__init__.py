"""IRS-assisted multi-user MIMO downlink simulation and beam optimization.

Two-phase design: an offline statistical-CSI optimizer shapes the analog
beams of wall-mounted reflecting surfaces from the distribution of user
placements, and an online weighted-MMSE solver computes the digital
precoders and receivers per channel realization with the analog beams
frozen.
"""

__version__ = "0.1.0"

from .numerics import NumericalError
from .scenario import (
    BeamConstraint,
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    config_hash,
    load_config,
)
from .channel import ChannelSet, build_channel_set, composite_channel
from .wmmse import online_wmmse
from .irs_opt import (
    IrsBeamSet,
    OptReport,
    load_beams,
    offline_optimize,
    offline_optimize_channels,
    save_beams,
)
from .metrics import EvalResult, effective_rank, evaluate_average_sum_rate

__all__ = [
    "__version__",
    "NumericalError",
    "ConfigError",
    "ScenarioConfig",
    "config_from_dict",
    "config_hash",
    "load_config",
    "ChannelSet",
    "build_channel_set",
    "composite_channel",
    "online_wmmse",
    "BeamConstraint",
    "IrsBeamSet",
    "OptReport",
    "load_beams",
    "offline_optimize",
    "offline_optimize_channels",
    "save_beams",
    "EvalResult",
    "effective_rank",
    "evaluate_average_sum_rate",
]
