"""Sneak-path channel lab: crossbar simulation, constrained coding, detection."""

from .channel import (
    ChannelParams,
    compute_sneak_mask,
    count_active_configs,
    count_possible_sneak_paths,
    random_array,
    read_array,
    sample_failures,
    transmit,
)
from .codec import (
    CodecConfig,
    Criterion,
    EncodedArray,
    ScramblerPoly,
    decode_array,
    descramble,
    encode_array,
    scramble,
    tile_weights,
)
from .detectors import (
    Classification,
    ThresholdDetector,
    ThresholdSearchResult,
    classify_array,
    default_grid,
    derive_threshold,
    pipeline_detect,
)
from .analysis import (
    BerEstimate,
    Scenario,
    array_level_se,
    ber_lower_bound,
    bound_for_scenario,
    confidently_le,
    estimate_ber,
    le_zscore,
    p_nonsp,
    q_function,
    simulate_nonsp_fraction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
