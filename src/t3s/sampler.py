"""Frame and token sampling: builds per-trial retention plans.

Each trial selects N of F frames and keeps a fraction alpha of the trial's
N*M visual tokens. All strategies produce exactly floor(alpha * N * M) kept
token positions, listed ascending in the trial-local frame-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ContractError
from .numkernel import Rng, sample_without_replacement


def kept_tokens(alpha: float, total_tokens: int) -> int:
    """floor(alpha * L), exact for the decimal ratio a config holds.

    `int(alpha * L)` truncates a rounded binary product: int(0.29 * 100) is
    28. The shortest repr of a float is the decimal it was written as, so
    Decimal arithmetic on it floors the intended ratio.
    """
    return int(Decimal(repr(float(alpha))) * total_tokens)


class FrameMethod(Enum):
    RANDOM = "random"
    UNIFORM = "uniform"


class TokenStrategy(Enum):
    RAND_TOK = "rand_tok"  # uniform subset of token positions
    UNI_TOK = "uni_tok"  # deterministic stride over positions
    RAND_FRM = "rand_frm"  # whole-frame blocks, last block truncated
    ATTN_TOP = "attn_top"  # largest caller-supplied attention scores


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for one multi-trial sampling pass.

    `reuse_frames=True` makes every trial share trial 0's frame draw while
    token draws stay independent (the "m1" reuse variant); False resamples
    frames per trial ("m2").
    """

    total_frames: int
    frames_per_trial: int
    tokens_per_frame: int
    trials: int
    ratios: tuple[float, ...]
    frame_method: FrameMethod = FrameMethod.RANDOM
    token_strategy: TokenStrategy = TokenStrategy.RAND_TOK
    reuse_frames: bool = False

    def __post_init__(self):
        if self.total_frames < 1 or self.tokens_per_frame < 1:
            raise ConfigError("total_frames and tokens_per_frame must be >= 1")
        if not (1 <= self.frames_per_trial <= self.total_frames):
            raise ConfigError(
                f"frames_per_trial must be in [1, {self.total_frames}], "
                f"got {self.frames_per_trial}"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if len(self.ratios) != self.trials:
            raise ConfigError(
                f"expected {self.trials} ratios, got {len(self.ratios)}"
            )
        if any(not (0.0 < a <= 1.0) for a in self.ratios):
            raise ConfigError(f"every ratio must lie in (0, 1], got {self.ratios}")

    @property
    def tokens_per_trial(self) -> int:
        return self.frames_per_trial * self.tokens_per_frame


@dataclass(frozen=True)
class TrialPlan:
    """One trial's frame subset and retained token positions.

    `token_keep` indexes the trial-local frame-major token sequence of length
    N*M (frame block j occupies positions [j*M, (j+1)*M)).
    """

    frame_indices: np.ndarray
    token_keep: np.ndarray
    alpha: float


def sample_frame_indices(
    total_frames: int, take: int, method: FrameMethod, rng: Rng
) -> np.ndarray:
    """Ascending frame index subset of size `take`.

    RANDOM draws a uniform subset; UNIFORM is the deterministic stride
    floor(j * F / N) and ignores the rng.
    """
    if take > total_frames:
        raise ContractError(
            f"cannot take {take} frames from {total_frames}"
        )
    if method is FrameMethod.UNIFORM:
        return (np.arange(take, dtype=np.int64) * total_frames) // take
    return sample_without_replacement(total_frames, take, rng)


def subsample_tokens(
    total_tokens: int,
    tokens_per_frame: int,
    alpha: float,
    strategy: TokenStrategy,
    rng: Rng,
    attn_scores: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Ascending retained token positions, exactly floor(alpha * L) of them.

    RAND_FRM keeps whole frame blocks (uniformly chosen) and truncates the
    tail of the last selected block when floor(alpha * L) is not a multiple
    of the block size, so the length contract holds for every strategy.
    """
    if not (0.0 < alpha <= 1.0):
        raise ContractError(f"alpha must lie in (0, 1], got {alpha}")
    if total_tokens % tokens_per_frame != 0:
        raise ContractError(
            f"total_tokens={total_tokens} is not a multiple of "
            f"tokens_per_frame={tokens_per_frame}"
        )
    keep = kept_tokens(alpha, total_tokens)
    if keep == 0:
        return np.empty(0, dtype=np.int64)

    if strategy is TokenStrategy.RAND_TOK:
        return sample_without_replacement(total_tokens, keep, rng)

    if strategy is TokenStrategy.UNI_TOK:
        return (np.arange(keep, dtype=np.int64) * total_tokens) // keep

    if strategy is TokenStrategy.RAND_FRM:
        frames = total_tokens // tokens_per_frame
        whole = -(-keep // tokens_per_frame)  # ceil
        chosen = sample_without_replacement(frames, whole, rng)
        blocks = (
            chosen[:, None] * tokens_per_frame
            + np.arange(tokens_per_frame, dtype=np.int64)
        ).ravel()
        return blocks[:keep]

    if strategy is TokenStrategy.ATTN_TOP:
        if attn_scores is None:
            raise ContractError("ATTN_TOP requires attn_scores")
        scores = np.asarray(attn_scores, dtype=np.float64).ravel()
        if len(scores) != total_tokens:
            raise ContractError(
                f"attn_scores length {len(scores)} != total_tokens {total_tokens}"
            )
        # stable sort on -scores: ties resolve to the lower index
        order = np.argsort(-scores, kind="stable")
        top = order[:keep].copy()
        top.sort()
        return top

    raise ContractError(f"unknown strategy {strategy!r}")


ScoreProvider = Callable[[np.ndarray], np.ndarray]


def build_trial_plans(
    cfg: SamplerConfig,
    rng: Rng,
    attn_scores_fn: Optional[ScoreProvider] = None,
) -> list[TrialPlan]:
    """All m trial plans for one inference pass.

    Trial i's frame draw and token draw use independent child rng streams,
    so plan construction is schedule-independent. For ATTN_TOP the caller
    supplies `attn_scores_fn(frame_indices) -> per-token scores` (length
    N*M); score production stays outside this module.
    """
    if cfg.token_strategy is TokenStrategy.ATTN_TOP and attn_scores_fn is None:
        raise ContractError("ATTN_TOP plans need an attn_scores_fn")
    plans: list[TrialPlan] = []
    for i in range(cfg.trials):
        frame_rng = rng.child(2 * i)
        token_rng = rng.child(2 * i + 1)
        if cfg.reuse_frames and plans:
            frames = plans[0].frame_indices
        else:
            frames = sample_frame_indices(
                cfg.total_frames, cfg.frames_per_trial, cfg.frame_method, frame_rng
            )
        scores = attn_scores_fn(frames) if attn_scores_fn is not None else None
        keep = subsample_tokens(
            cfg.tokens_per_trial,
            cfg.tokens_per_frame,
            cfg.ratios[i],
            cfg.token_strategy,
            token_rng,
            attn_scores=scores,
        )
        plans.append(TrialPlan(frames, keep, cfg.ratios[i]))
    return plans


def closed_form_coverage(total_frames: int, frames_per_trial: int, trials: int) -> float:
    """P(at least one of `trials` independent uniform frame subsets contains
    a fixed key frame): 1 - (1 - N/F)^m."""
    if not (1 <= frames_per_trial <= total_frames) or trials < 1:
        raise ContractError("need 1 <= N <= F and m >= 1")
    return 1.0 - (1.0 - frames_per_trial / total_frames) ** trials
