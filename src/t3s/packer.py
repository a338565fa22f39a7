"""Packs trial subsequences into one flat sequence with per-segment layout.

A packed sequence holds m contiguous segments, one per trial. Each segment
is [kept visual tokens][text prompt copy][generated tokens]; positions
restart at 0 inside every segment. The companion attention rule is
block-diagonal causal: position p may attend q iff both lie in the same
segment and q <= p, that is, only inside its own segment and only backwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ContractError
from .sampler import TrialPlan


class Segment(NamedTuple):
    start: int
    length: int


@dataclass(frozen=True)
class PackedSequence:
    """Immutable flat layout of m trial segments.

    Per position, exactly one of two payloads applies: a visual embedding row
    (token_ids[p] == -1) or a vocabulary id (embeddings[p] is all-zero and
    ignored). The segment table alone fixes each position's segment and its
    index inside it. `append_token` returns a new value; arrays are read-only.
    """

    segments: tuple[Segment, ...]
    embeddings: np.ndarray  # (total, model_dim) float64
    token_ids: np.ndarray  # (total,) int64, -1 where the payload is an embedding

    def __post_init__(self):
        # every segment has a last position, where its logits and cache state are read
        if any(s.length < 1 for s in self.segments):
            raise ContractError("a packed segment must hold at least one token")
        self.embeddings.flags.writeable = False
        self.token_ids.flags.writeable = False

    @property
    def total_length(self) -> int:
        return len(self.token_ids)

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def model_dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def pos_in_segment(self) -> np.ndarray:
        """(total,) int64 index of each position inside its own segment."""
        return np.concatenate(
            [np.arange(s.length, dtype=np.int64) for s in self.segments]
        )


def pack(
    plans: Sequence[TrialPlan],
    video,
    text: Sequence[int],
) -> PackedSequence:
    """Assemble one packed sequence from trial plans plus a text prompt.

    Segment i carries the video rows plan i keeps, followed by a full copy of
    `text`. Kept position k of the plan's frame-major token sequence is row
    f*M + k % M of the video, f = plan.frame_indices[k // M], in ascending k.
    Only those rows are drawn: every segment's rows are read in one
    `video.rows(index)` call, which returns a (len(index), model_dim) array;
    `video` also needs `num_frames`, `tokens_per_frame` and `model_dim`.
    """
    if len(plans) == 0:
        raise ContractError("pack requires at least one trial plan")
    m = video.tokens_per_frame
    text_ids = np.asarray(list(text), dtype=np.int64)
    if len(text_ids) and text_ids.min() < 0:
        raise ContractError("text token ids must be non-negative")

    kept_rows: list[np.ndarray] = []
    parts_ids: list[np.ndarray] = []
    for i, plan in enumerate(plans):
        f, k = plan.frame_indices, plan.token_keep
        if len(f) and not (0 <= f.min() and f.max() < video.num_frames):
            raise ContractError("plan references a frame outside the video")
        if len(k) and not (0 <= k.min() and k.max() < len(f) * m):
            raise ContractError("plan keeps a token outside the trial range")
        if len(k) + len(text_ids) == 0:
            raise ContractError(f"trial {i} keeps no tokens and the text is empty")
        kept_rows.append(f[k // m] * m + k % m)
        parts_ids.append(np.concatenate([np.full(len(k), -1, dtype=np.int64), text_ids]))
    token_ids = np.concatenate(parts_ids)
    embeddings = np.zeros((len(token_ids), video.model_dim))
    embeddings[token_ids < 0] = video.rows(np.concatenate(kept_rows))
    lengths = [len(ids) for ids in parts_ids]
    starts = np.cumsum([0, *lengths[:-1]])
    return PackedSequence(
        segments=tuple(Segment(int(s), l) for s, l in zip(starts, lengths)),
        embeddings=embeddings,
        token_ids=token_ids,
    )


def append_token(
    packed: PackedSequence, token_id: int, max_positions: Optional[int] = None
) -> PackedSequence:
    """New packed sequence with `token_id` appended to the end of every segment."""
    if token_id < 0:
        raise ContractError(f"token id must be non-negative, got {token_id}")
    m = packed.num_segments
    if max_positions is not None and packed.total_length + m > max_positions:
        raise ContractError(
            f"append would exceed max_positions={max_positions} "
            f"(current {packed.total_length}, +{m})"
        )
    ends = [s.start + s.length for s in packed.segments]
    return PackedSequence(
        segments=tuple(
            Segment(s.start + i, s.length + 1) for i, s in enumerate(packed.segments)
        ),
        embeddings=np.insert(packed.embeddings, ends, 0.0, axis=0),
        token_ids=np.insert(packed.token_ids, ends, token_id),
    )


def token_per_segment(
    token_id: int, num_segments: int, model_dim: int
) -> PackedSequence:
    """`token_id` as the one token of each of `num_segments` segments: the
    extension that appends it to every segment of a cached sequence."""
    if token_id < 0:
        raise ContractError(f"token id must be non-negative, got {token_id}")
    return PackedSequence(
        segments=tuple(Segment(i, 1) for i in range(num_segments)),
        embeddings=np.zeros((num_segments, model_dim)),
        token_ids=np.full(num_segments, token_id, dtype=np.int64),
    )


def last_positions(packed: PackedSequence) -> list[int]:
    """Final flat position of each segment, in trial order."""
    return [s.start + s.length - 1 for s in packed.segments]


def slice_segment(packed: PackedSequence, index: int) -> PackedSequence:
    """Segment `index` repacked as a standalone single-segment sequence."""
    if not (0 <= index < packed.num_segments):
        raise ContractError(f"segment index {index} out of range")
    s = packed.segments[index]
    sel = slice(s.start, s.start + s.length)
    return PackedSequence(
        segments=(Segment(0, s.length),),
        embeddings=packed.embeddings[sel].copy(),
        token_ids=packed.token_ids[sel].copy(),
    )
