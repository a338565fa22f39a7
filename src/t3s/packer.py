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
from .numkernel import per_row
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


def kept_rows(frames: np.ndarray, keeps: np.ndarray, video) -> np.ndarray:
    """The (R, k) video rows that R trials with (R, N) frames keep at their
    (R, k) frame-major positions: position k is row f*M + k % M, f =
    frames[r, k // M]. A frame outside `video` (its `num_frames` and
    `tokens_per_frame`) or a position outside [0, N*M) raises ContractError."""
    m = video.tokens_per_frame
    if frames.size and not (0 <= frames.min() and frames.max() < video.num_frames):
        raise ContractError("plan references a frame outside the video")
    if keeps.size and not (0 <= keeps.min() and keeps.max() < frames.shape[1] * m):
        raise ContractError("plan keeps a token outside the trial range")
    return per_row(frames, keeps // m) * m + keeps % m


def segment_lengths(kept: Sequence[int], text_ids: np.ndarray) -> list[int]:
    """The layout rule of every segment: the lengths of trials that keep
    `kept[i]` video rows each, then a copy of `text_ids` (the text along its
    last axis). No trial, a negative text id or an empty segment raises
    ContractError."""
    if len(kept) == 0:
        raise ContractError("a packed sequence needs at least one trial")
    if text_ids.min(initial=0) < 0:
        raise ContractError("text token ids must be non-negative")
    lengths = [k + text_ids.shape[-1] for k in kept]
    if 0 in lengths:
        raise ContractError(f"trial {lengths.index(0)} keeps no tokens and the text is empty")
    return lengths


def check_block(tasks: int, questions, rows: Sequence[np.ndarray]) -> None:
    """ContractError unless questions are (R, q) and each trial's rows (R, k),
    R = `tasks`: the block both backends' `block_logits` read."""
    shapes = [np.shape(questions)] + [np.shape(r) for r in rows]
    if any(len(shape) != 2 or shape[0] != tasks for shape in shapes):
        raise ContractError("need (R, q) questions and (R, k) rows per trial")


def pack(plans: Sequence[TrialPlan], video, text: Sequence[int]) -> PackedSequence:
    """One packed sequence of trial plans plus a text prompt: `pack_rows` of
    each plan's `kept_rows`. `video` needs what `kept_rows` reads here, and
    what `PackedSequence.video` lists for the backends that read it."""
    rows = [kept_rows(p.frame_indices[None], p.token_keep[None], video)[0] for p in plans]
    return pack_rows(rows, video, text)


def pack_rows(rows: Sequence[np.ndarray], video, text: Sequence[int]) -> PackedSequence:
    """One packed sequence whose segment i carries the video row ids rows[i],
    then a full copy of `text`. Only the row ids are recorded; nothing is
    drawn."""
    text_ids = np.asarray(list(text), dtype=np.int64)
    lengths = segment_lengths([len(r) for r in rows], text_ids)
    segments = [Segment(int(start), n) for start, n in zip(np.cumsum(lengths) - lengths, lengths)]
    # -1 at every visual position; each segment's text copy fills its tail
    token_ids = np.full(sum(lengths), -1, dtype=np.int64)
    for start, length in segments:
        token_ids[start + length - len(text_ids) : start + length] = text_ids
    return PackedSequence(
        segments=tuple(segments),
        token_ids=token_ids,
        rows=np.concatenate(rows),
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
