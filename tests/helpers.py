"""Test-only reference code: a video given as an explicit array, the whole of
a lazy video drawn at once, a direct single-sequence greedy baseline that
shares no code with the sampler or the multi-trial packer paths, the
multi-trial decode that recomputes the whole packed sequence every step, the
sampler's trial-plan postcondition, a structural dump of packed sequences for
golden tests, and each position's segment id."""

from typing import Sequence

import numpy as np

from t3s.aggregator import fuse_token
from t3s.packer import PackedSequence, Segment, append_token, last_positions, pack
from t3s.sampler import SamplerConfig, TrialPlan, kept_tokens
from t3s.toymodel import VideoTokenStream


class ArrayVideo:
    """A video whose rows are an explicit (F, M, model_dim) array, read
    through the same `rows` method as `VideoTokenStream`."""

    def __init__(self, frames: np.ndarray):
        self.frames = np.asarray(frames, dtype=np.float64)
        self.num_frames, self.tokens_per_frame, self.model_dim = self.frames.shape

    def rows(self, index: np.ndarray) -> np.ndarray:
        return self.frames.reshape(-1, self.model_dim)[index]


def materialise(video) -> np.ndarray:
    """Every row of `video` drawn in one read, as (F, M, model_dim)."""
    f, m = video.num_frames, video.tokens_per_frame
    return video.rows(np.arange(f * m)).reshape(f, m, video.model_dim)


def _one_segment(embeddings, token_ids) -> PackedSequence:
    return PackedSequence((Segment(0, len(token_ids)),), embeddings, token_ids)


def single_sequence(video: VideoTokenStream, text: Sequence[int]) -> PackedSequence:
    """The plain <video, text> sequence, built without trial plans or packing."""
    dim = video.model_dim
    visual = materialise(video).reshape(-1, dim)
    text_ids = np.asarray(list(text), dtype=np.int64)
    embeddings = np.concatenate([visual, np.zeros((len(text_ids), dim))], axis=0)
    token_ids = np.concatenate([np.full(len(visual), -1, dtype=np.int64), text_ids])
    return _one_segment(embeddings, token_ids)


def _append_single(seq: PackedSequence, token_id: int) -> PackedSequence:
    embeddings = np.concatenate([seq.embeddings, np.zeros((1, seq.model_dim))], axis=0)
    token_ids = np.concatenate([seq.token_ids, [token_id]])
    return _one_segment(embeddings, token_ids)


def baseline_greedy_decode(
    backend,
    video: VideoTokenStream,
    text: Sequence[int],
    steps: int,
) -> list[int]:
    """Plain greedy decoding of the single full sequence."""
    seq = single_sequence(video, text)
    out: list[int] = []
    for step in range(steps):
        logits, _ = backend.forward(seq)
        token = int(np.argmax(logits[-1]))
        out.append(token)
        if step + 1 < steps:
            seq = _append_single(seq, token)
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
