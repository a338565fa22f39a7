"""Test-only reference code: a video given as an explicit array, the whole of
a lazy video drawn at once, packed sequences built directly from row and
vocabulary ids, a direct single-sequence greedy baseline that shares no code
with the sampler or the multi-trial packer paths, the multi-trial decode that
recomputes the whole packed sequence every step, the sampler's trial-plan
postcondition, a structural dump of packed sequences for golden tests, and
each position's segment id."""

from typing import Sequence

import numpy as np

from t3s.aggregator import fuse_token
from t3s.packer import PackedSequence, Segment, append_token, last_positions, pack
from t3s.sampler import SamplerConfig, TrialPlan, kept_tokens
from t3s.toymodel import VideoTokenStream


class ArrayVideo:
    """A video whose rows are an explicit (F, M, model_dim) array, read
    through the same `rows`, `key` and `needle_mask` as `VideoTokenStream`;
    its key is 0 and it has no needle frames."""

    def __init__(self, frames: np.ndarray):
        self.frames = np.asarray(frames, dtype=np.float64)
        self.num_frames, self.tokens_per_frame, self.model_dim = self.frames.shape
        self.key = 0
        self.needle_mask = np.zeros(self.num_frames, dtype=bool)

    def rows(self, index: np.ndarray) -> np.ndarray:
        return self.frames.reshape(-1, self.model_dim)[index]


def materialise(video) -> np.ndarray:
    """Every row of `video` drawn in one read, as (F, M, model_dim)."""
    f, m = video.num_frames, video.tokens_per_frame
    return video.rows(np.arange(f * m)).reshape(f, m, video.model_dim)


def segments_of(video, parts) -> PackedSequence:
    """One packed segment per part, back to back. A part holds one int per
    position: a vocabulary id t >= 0, or -1 - r for row r of `video`."""
    codes = np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])
    starts = np.cumsum([0] + [len(p) for p in parts])
    return PackedSequence(
        tuple(Segment(int(b), len(p)) for b, p in zip(starts, parts)),
        np.maximum(codes, -1),
        -1 - codes[codes < 0],
        video,
    )


def single_sequence(video: VideoTokenStream, text: Sequence[int]) -> PackedSequence:
    """The plain <video, text> sequence, built without trial plans or packing."""
    rows = np.arange(video.num_frames * video.tokens_per_frame, dtype=np.int64)
    return segments_of(video, [np.concatenate([-1 - rows, np.asarray(text, dtype=np.int64)])])


def baseline_greedy_decode(
    backend,
    video: VideoTokenStream,
    text: Sequence[int],
    steps: int,
) -> list[int]:
    """Plain greedy decoding of the single full sequence."""
    ids = list(text)
    out: list[int] = []
    for _ in range(steps):
        logits, _ = backend.forward(single_sequence(video, ids))
        token = int(np.argmax(logits[-1]))
        out.append(token)
        ids.append(token)
    return out


def recompute_decode(
    backend,
    plans,
    video,
    text: Sequence[int],
    steps: int,
    strategy,
) -> list[int]:
    """Oracle for `aggregator.decode`: every step forwards the whole packed
    sequence without a cache, then appends the fused token to each segment."""
    packed = pack(plans, video, text)
    out: list[int] = []
    for step in range(steps):
        logits, _ = backend.forward(packed)
        token = fuse_token(logits[last_positions(packed)], strategy)
        out.append(token)
        if step + 1 < steps:
            packed = append_token(packed, token, max_positions=backend.max_positions)
    return out


def check_plan(plan: TrialPlan, cfg: SamplerConfig) -> None:
    """Postcondition of `build_trial_plans`: N frame indices inside the video
    and floor(alpha * N * M) token positions inside the trial, both strictly
    ascending."""
    f, k = plan.frame_indices, plan.token_keep
    n, m = cfg.frames_per_trial, cfg.tokens_per_frame
    assert len(f) == n, f"expected {n} frame indices, got {len(f)}"
    assert 0 <= f[0] and f[-1] < cfg.total_frames, "frame index out of range"
    assert np.all(np.diff(f) > 0), "frame indices must be strictly ascending"
    want = kept_tokens(plan.alpha, n * m)
    assert len(k) == want, f"expected {want} kept tokens, got {len(k)}"
    if len(k):
        assert 0 <= k[0] and k[-1] < n * m, "token index out of range"
    assert np.all(np.diff(k) > 0), "token indices must be strictly ascending"


def to_debug_json(packed: PackedSequence) -> dict:
    """JSON-friendly structural dump (segment table + token ids)."""
    return {
        "segments": [[s.start, s.length] for s in packed.segments],
        "token_ids": [int(t) for t in packed.token_ids],
    }


def segment_ids(packed: PackedSequence) -> np.ndarray:
    """The segment of each flat position, read off the segment table."""
    return np.repeat(
        np.arange(packed.num_segments), [s.length for s in packed.segments]
    )
