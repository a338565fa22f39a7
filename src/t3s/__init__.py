"""Multi-trial temporal sampling for video-token transformer decoding.

Plan several short frame/token subsequences of one long video, run them in a
single packed forward pass under a block-diagonal causal mask, aggregate the
per-trial next-token logits, and account for the attention cost saved.
"""

from .aggregator import (
    AggregationStrategy,
    ConfidenceWeighted,
    CrossRefine,
    MeanLogits,
    confidence_weighted,
    cross_refine,
    decode,
    fuse_token,
    fuse_tokens,
    mean_logits,
)
from .costmodel import CostReport, exact_pair_ratio, measure, theoretical_costs
from .errors import ConfigError, ContractError, ShapeError
from .harness import (
    CoverageReport,
    ExperimentConfig,
    ExperimentReport,
    SyntheticTask,
    config_from_dict,
    coverage_report,
    default_experiment_config,
    gen_task,
    run_experiment,
    sweep,
)
from .numkernel import Rng, sample_without_replacement, softmax_rows
from .packer import (
    PackedSequence,
    append_token,
    last_positions,
    pack,
    slice_segment,
)
from .sampler import (
    FrameMethod,
    SamplerConfig,
    TokenStrategy,
    TrialPlan,
    build_trial_plans,
    closed_form_coverage,
    sample_frame_indices,
    subsample_tokens,
)
from .toymodel import (
    ModelConfig,
    NeedleProbe,
    SeededTransformer,
    SegmentCache,
    VideoTokenStream,
    build_model,
    needle_direction,
)

__version__ = "0.1.0"
