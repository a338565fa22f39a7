"""Packs trial subsequences into one flat sequence with per-segment layout.

A packed sequence holds m contiguous segments, one per trial. Each segment
is [kept visual tokens][text prompt copy][generated tokens]; positions
restart at 0 inside every segment. The companion attention rule is
block-diagonal causal: position p may attend q iff both lie in the same
segment and q <= p, that is, only inside its own segment and only backwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ContractError
from .sampler import TrialPlan


class Segment(NamedTuple):
    start: int
    length: int


@dataclass(frozen=True)
class PackedSequence:
    """Immutable flat layout of m trial segments.

    Per position, exactly one of two payloads applies: a row id of `video`
    (token_ids[p] == -1) or a vocabulary id. `rows` holds the row ids of the
    visual positions in position order; no float is stored. The segment table
    alone fixes each position's segment and its index inside it.
    `append_token` returns a new value; arrays are read-only.
    """

    segments: tuple[Segment, ...]
    token_ids: np.ndarray  # (total,) int64, -1 where the payload is a video row
    rows: np.ndarray  # (visual,) int64 row id of each visual position, in order
    video: Any  # its `rows(index)`, `model_dim`, `key`, `tokens_per_frame`, `needle_mask`

    def __post_init__(self):
        ends = [0]
        for s in self.segments:
            # every segment has a last position, where its logits and cache state are read
            if s.length < 1:
                raise ContractError("a packed segment must hold at least one token")
            ends.append(ends[-1] + s.length)
        if [s.start for s in self.segments] + [len(self.token_ids)] != ends:
            raise ContractError("segments must tile the positions back to back from 0")
        if len(self.rows) != np.count_nonzero(self.token_ids < 0):
            raise ContractError("need one row id per visual position")
        self.token_ids.flags.writeable = False
        self.rows.flags.writeable = False

    @property
    def total_length(self) -> int:
        return len(self.token_ids)

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def embeddings(self) -> np.ndarray:
        """(total, model_dim) float64: the video's rows at visual positions
        and zeros at vocabulary positions, drawn on each read."""
        out = np.zeros((self.total_length, self.video.model_dim))
        out[self.token_ids < 0] = self.video.rows(self.rows)
        return out


def pack(
    plans: Sequence[TrialPlan],
    video,
    text: Sequence[int],
) -> PackedSequence:
    """Assemble one packed sequence from trial plans plus a text prompt.

    Segment i carries the video rows plan i keeps, followed by a full copy of
    `text`. Kept position k of the plan's frame-major token sequence is row
    f*M + k % M of the video, f = plan.frame_indices[k // M], in ascending k.
    Only the row ids are recorded; nothing is drawn. `video` needs
    `num_frames` and `tokens_per_frame` here, and what `PackedSequence.video`
    lists for the backends that read it.
    """
    if len(plans) == 0:
        raise ContractError("pack requires at least one trial plan")
    m = video.tokens_per_frame
    text_ids = np.asarray(list(text), dtype=np.int64)
    if len(text_ids) and text_ids.min() < 0:
        raise ContractError("text token ids must be non-negative")

    kept_rows: list[np.ndarray] = []
    segments: list[Segment] = []
    total = 0
    for i, plan in enumerate(plans):
        f, k = plan.frame_indices, plan.token_keep
        if len(f) and not (0 <= f.min() and f.max() < video.num_frames):
            raise ContractError("plan references a frame outside the video")
        if len(k) and not (0 <= k.min() and k.max() < len(f) * m):
            raise ContractError("plan keeps a token outside the trial range")
        if len(k) + len(text_ids) == 0:
            raise ContractError(f"trial {i} keeps no tokens and the text is empty")
        # the row id of each token of the plan's frames, read at the kept ones
        kept_rows.append((f[:, None] * m + np.arange(m)).ravel()[k])
        segments.append(Segment(total, len(k) + len(text_ids)))
        total += len(k) + len(text_ids)
    # -1 at every visual position; each segment's text copy fills its tail
    token_ids = np.full(total, -1, dtype=np.int64)
    for start, length in segments:
        token_ids[start + length - len(text_ids) : start + length] = text_ids
    return PackedSequence(
        segments=tuple(segments),
        token_ids=token_ids,
        rows=np.concatenate(kept_rows),
        video=video,
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
        token_ids=np.insert(packed.token_ids, ends, token_id),
        rows=packed.rows,
        video=packed.video,
    )


def token_per_segment(token_id: int, packed: PackedSequence) -> PackedSequence:
    """`token_id` as the one token of each segment of `packed`: the extension
    that appends it to every segment of a cache holding `packed`."""
    if token_id < 0:
        raise ContractError(f"token id must be non-negative, got {token_id}")
    return PackedSequence(
        segments=tuple(Segment(i, 1) for i in range(packed.num_segments)),
        token_ids=np.full(packed.num_segments, token_id, dtype=np.int64),
        rows=np.empty(0, dtype=np.int64),
        video=packed.video,
    )


def last_positions(packed: PackedSequence) -> list[int]:
    """Final flat position of each segment, in trial order."""
    return [s.start + s.length - 1 for s in packed.segments]


def slice_segment(packed: PackedSequence, index: int) -> PackedSequence:
    """Segment `index` repacked as a standalone single-segment sequence."""
    if not (0 <= index < packed.num_segments):
        raise ContractError(f"segment index {index} out of range")
    s = packed.segments[index]
    ids = packed.token_ids[s.start : s.start + s.length]
    first = np.count_nonzero(packed.token_ids[: s.start] < 0)
    return PackedSequence(
        segments=(Segment(0, s.length),),
        token_ids=ids.copy(),
        rows=packed.rows[first : first + np.count_nonzero(ids < 0)].copy(),
        video=packed.video,
    )
