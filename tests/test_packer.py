"""Packing tests: layout arithmetic, gather oracle, immutability, appends."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t3s.errors import ContractError
from t3s.numkernel import Rng
from t3s.packer import (
    PackedSequence,
    Segment,
    append_token,
    kept_rows,
    last_positions,
    pack,
    slice_segment,
    token_per_segment,
)
from t3s.sampler import SamplerConfig, TrialPlan, build_trial_plans

from helpers import ArrayVideo, pos_in_segment, segment_ids, to_debug_json

DIM = 4


def tagged_video(num_frames, tokens_per_frame):
    """Embeddings whose first component encodes (frame, patch) as f*100 + p."""
    frames = np.zeros((num_frames, tokens_per_frame, DIM))
    for f in range(num_frames):
        for p in range(tokens_per_frame):
            frames[f, p, 0] = f * 100 + p
    return ArrayVideo(frames)


def full_plan(num_frames, tokens_per_frame):
    return TrialPlan(
        np.arange(num_frames, dtype=np.int64),
        np.arange(num_frames * tokens_per_frame, dtype=np.int64),
        1.0,
    )


def check_structure(packed, expected_visual_lens, text_len, generated):
    """Full structural re-check: contiguity, coverage, positions, composition."""
    at = 0
    for i, seg in enumerate(packed.segments):
        assert seg.start == at
        assert seg.length == expected_visual_lens[i] + text_len + generated
        span = slice(seg.start, seg.start + seg.length)
        assert np.array_equal(pos_in_segment(packed)[span], np.arange(seg.length))
        ids = packed.token_ids[span]
        assert (ids[: expected_visual_lens[i]] == -1).all()
        assert (ids[expected_visual_lens[i] :] >= 0).all()
        at += seg.length
    assert at == packed.total_length


class TestPack:
    def test_single_full_trial_matches_plain_sequence(self):
        video = tagged_video(3, 2)
        packed = pack([full_plan(3, 2)], video, [4, 5])
        flat = video.frames.reshape(-1, DIM)
        assert np.array_equal(packed.embeddings[:6], flat)
        assert np.array_equal(packed.token_ids, [-1, -1, -1, -1, -1, -1, 4, 5])
        assert packed.segments == ((0, 8),)

    def test_two_trial_layout_arithmetic(self):
        # L=12, alpha=(0.5, 0.5), |text|=3: segments [0,9) and [9,18)
        video = tagged_video(4, 3)
        cfg = SamplerConfig(
            total_frames=4,
            frames_per_trial=4,
            tokens_per_frame=3,
            trials=2,
            ratios=(0.5, 0.5),
        )
        plans = build_trial_plans(cfg, Rng(3))
        packed = pack(plans, video, [7, 8, 9])
        assert packed.total_length == 18
        # half-open spans [0, 9) and [9, 18)
        assert packed.segments == ((0, 9), (9, 9))
        check_structure(packed, [6, 6], 3, 0)

    def test_gather_matches_reference_oracle(self):
        video = tagged_video(8, 3)
        cfg = SamplerConfig(
            total_frames=8,
            frames_per_trial=5,
            tokens_per_frame=3,
            trials=2,
            ratios=(0.6, 0.4),
        )
        plans = build_trial_plans(cfg, Rng(17))
        packed = pack(plans, video, [1])
        at = 0
        for plan in plans:
            # oracle: materialize frame-major token tags, then apply keep mask
            tags = []
            for f in plan.frame_indices:
                for p in range(3):
                    tags.append(f * 100 + p)
            keep_mask = np.zeros(len(tags), dtype=bool)
            keep_mask[plan.token_keep] = True
            expected = np.array(tags, dtype=float)[keep_mask]
            got = packed.embeddings[at : at + len(expected), 0]
            assert np.array_equal(got, expected)
            at += len(expected) + 1  # skip the text copy

    def test_gathered_order_ascending(self):
        video = tagged_video(6, 2)
        cfg = SamplerConfig(
            total_frames=6,
            frames_per_trial=4,
            tokens_per_frame=2,
            trials=1,
            ratios=(0.5,),
        )
        plans = build_trial_plans(cfg, Rng(2))
        packed = pack(plans, video, [])
        tags = packed.embeddings[:, 0]
        assert (np.diff(tags) > 0).all()

    def test_empty_plans_rejected(self):
        with pytest.raises(ContractError):
            pack([], tagged_video(2, 2), [1])

    def test_frame_out_of_range_rejected(self):
        plan = TrialPlan(np.array([5]), np.array([0]), 0.5)
        with pytest.raises(ContractError):
            pack([plan], tagged_video(3, 2), [])

    @pytest.mark.parametrize(
        "frames, keep",
        [([-1], [0, 1]), ([0], [-1]), ([4, 0], [0]), ([0, 1], [4, 0])],
        ids=["negative_frame", "negative_token", "unsorted_frames", "unsorted_tokens"],
    )
    def test_every_index_bounds_checked(self, frames, keep):
        # numpy would wrap a negative index to the last frame or token
        plan = TrialPlan(np.array(frames), np.array(keep), 0.5)
        with pytest.raises(ContractError):
            pack([plan], tagged_video(3, 2), [])


    def test_empty_segment_rejected(self):
        # alpha * N * M < 1 keeps no token; with no text the trial's segment
        # would be empty and last_positions would point into its neighbour
        cfg = SamplerConfig(
            total_frames=2, frames_per_trial=2, tokens_per_frame=2,
            trials=2, ratios=(0.1, 1.0),
        )
        plans = build_trial_plans(cfg, Rng(0))
        assert len(plans[0].token_keep) == 0
        with pytest.raises(ContractError, match="trial 0"):
            pack(plans, tagged_video(2, 2), [])
        # built directly, an empty segment is rejected as well
        with pytest.raises(ContractError, match="at least one token"):
            PackedSequence(
                segments=(Segment(0, 2), Segment(2, 0)),
                token_ids=np.array([1, 2]),
                rows=np.array([], dtype=np.int64),
                video=tagged_video(2, 2),
            )
        packed = pack(plans, tagged_video(2, 2), [7])
        assert [s.length for s in packed.segments] == [1, 5]
        assert last_positions(packed) == [0, 5]


class TestKeptRows:
    """`kept_rows` is the one plan-to-row rule: `pack` records its rows and
    raises its plan errors."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_pack_rows(self, data):
        num_frames, per_frame = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        g = Rng(data.draw(st.integers(0, 2**32 - 1))).generator()
        take = data.draw(st.integers(1, num_frames))
        keep = data.draw(st.integers(0, take * per_frame))  # 0 keeps no token
        trials = data.draw(st.integers(1, 4))
        frames = np.array([np.sort(g.choice(num_frames, take, replace=False)) for _ in range(trials)])
        keeps = np.array([np.sort(g.choice(take * per_frame, keep, replace=False)) for _ in range(trials)])
        video = tagged_video(num_frames, per_frame)
        got = kept_rows(frames, keeps, video)
        assert got.shape == keeps.shape
        for f, k, rows in zip(frames, keeps, got):
            assert np.array_equal(rows, pack([TrialPlan(f, k, 1.0)], video, [1]).rows)
            # the trial's frame-major rows, enumerated, at its kept positions
            every = np.array([frame * per_frame + p for frame in f for p in range(per_frame)])
            assert np.array_equal(rows, every[k])

    @pytest.mark.parametrize(
        "frames, keeps, message",
        [
            ([[0, 4]], [[0]], "frame outside the video"),  # frame 4 of a 4-frame video
            ([[-1, 2]], [[0]], "frame outside the video"),
            ([[0, 2]], [[4]], "token outside the trial range"),  # token 4 of two 2-token frames
            ([[0, 2]], [[-1]], "token outside the trial range"),
        ],
        ids=["frame_past_video", "negative_frame", "keep_past_trial", "negative_keep"],
    )
    def test_bad_plans_raise_as_pack(self, frames, keeps, message):
        video = tagged_video(4, 2)
        frames, keeps = np.array(frames), np.array(keeps)
        with pytest.raises(ContractError) as want:
            pack([TrialPlan(frames[0], keeps[0], 1.0)], video, [1])
        with pytest.raises(ContractError, match=message) as got:
            kept_rows(frames, keeps, video)
        assert str(got.value) == str(want.value)


class TestLayoutChecks:
    @pytest.mark.parametrize(
        "segments, ids, rows",
        [
            (((0, 2), (3, 1)), [-1, 1, 2, 3], [0]),
            (((1, 2),), [-1, 1, 2], [0]),
            (((0, 2),), [-1, 1, 2], [0]),
            (((0, 3),), [-1, 1, 2], [0, 1]),
            (((0, 3),), [-1, -1, 2], [0]),
        ],
        ids=["gap", "late_start", "short", "extra_row", "missing_row"],
    )
    def test_malformed_layout_rejected(self, segments, ids, rows):
        with pytest.raises(ContractError):
            PackedSequence(
                tuple(Segment(*s) for s in segments),
                np.array(ids),
                np.array(rows, dtype=np.int64),
                tagged_video(2, 2),
            )

    def test_records_row_ids_and_draws_on_read(self):
        video = tagged_video(4, 3)
        plan = TrialPlan(np.array([1, 3]), np.array([0, 2, 4]), 0.5)
        packed = pack([plan], video, [7])
        assert packed.rows.tolist() == [3, 5, 10]
        assert not packed.rows.flags.writeable
        assert packed.embeddings[:, 0].tolist() == [100, 102, 301, 0]
        assert packed.embeddings is not packed.embeddings


class TestTokenPerSegment:
    def test_layout(self):
        packed = pack([full_plan(2, 2)] * 3, tagged_video(2, 2), [1])
        step = token_per_segment(9, packed)
        assert [tuple(s) for s in step.segments] == [(0, 1), (1, 1), (2, 1)]
        assert step.token_ids.tolist() == [9, 9, 9]
        assert step.video is packed.video and len(step.rows) == 0
        assert step.embeddings.shape == (3, DIM) and not step.embeddings.any()
        assert last_positions(step) == [0, 1, 2]

    def test_negative_token_rejected(self):
        packed = pack([full_plan(2, 2)], tagged_video(2, 2), [1])
        with pytest.raises(ContractError):
            token_per_segment(-1, packed)


class TestAppendToken:
    def test_single_segment_ordinary_append(self):
        packed = pack([full_plan(2, 2)], tagged_video(2, 2), [3])
        out = append_token(packed, 9)
        assert out.total_length == packed.total_length + 1
        assert out.token_ids[-1] == 9
        assert pos_in_segment(out)[-1] == packed.segments[0].length

    def test_two_segments_grow_together(self):
        video = tagged_video(4, 3)
        cfg = SamplerConfig(
            total_frames=4,
            frames_per_trial=4,
            tokens_per_frame=3,
            trials=2,
            ratios=(0.5, 0.5),
        )
        packed = pack(build_trial_plans(cfg, Rng(3)), video, [7, 8, 9])
        out = append_token(append_token(packed, 1), 2)
        assert out.total_length == packed.total_length + 4
        for seg, old in zip(out.segments, packed.segments):
            assert seg.length == old.length + 2
        check_structure(out, [6, 6], 3, 2)
        # the appended ids sit at each segment end, in append order
        for seg in out.segments:
            end = seg.start + seg.length
            assert list(out.token_ids[end - 2 : end]) == [1, 2]

    def test_sixteen_appends_structural_revalidation(self):
        video = tagged_video(4, 2)
        cfg = SamplerConfig(
            total_frames=4,
            frames_per_trial=2,
            tokens_per_frame=2,
            trials=3,
            ratios=(1.0, 0.5, 0.75),
        )
        packed = pack(build_trial_plans(cfg, Rng(5)), video, [2, 3])
        for g in range(16):
            packed = append_token(packed, g % 4)
        check_structure(packed, [4, 2, 3], 2, 16)

    def test_total_length_formula(self):
        # total = sum(floor(a_i * L)) + m*|text| + m*g
        video = tagged_video(5, 4)
        cfg = SamplerConfig(
            total_frames=5,
            frames_per_trial=3,
            tokens_per_frame=4,
            trials=2,
            ratios=(0.7, 0.3),
        )
        packed = pack(build_trial_plans(cfg, Rng(6)), video, [1, 2, 3])
        for _ in range(4):
            packed = append_token(packed, 0)
        expected = int(0.7 * 12) + int(0.3 * 12) + 2 * 3 + 2 * 4
        assert packed.total_length == expected

    def test_overflow_contract(self):
        packed = pack([full_plan(2, 2)], tagged_video(2, 2), [])
        with pytest.raises(ContractError):
            append_token(packed, 0, max_positions=packed.total_length)

    def test_negative_token_rejected(self):
        packed = pack([full_plan(2, 2)], tagged_video(2, 2), [])
        with pytest.raises(ContractError):
            append_token(packed, -1)


class TestLastPositions:
    def test_single_segment(self):
        packed = pack([full_plan(3, 3)], tagged_video(3, 3), [])
        assert last_positions(packed) == [8]

    def test_two_segments(self):
        video = tagged_video(4, 3)
        cfg = SamplerConfig(
            total_frames=4,
            frames_per_trial=4,
            tokens_per_frame=3,
            trials=2,
            ratios=(0.5, 0.5),
        )
        packed = pack(build_trial_plans(cfg, Rng(3)), video, [7, 8, 9])
        assert last_positions(packed) == [8, 17]

    def test_matches_scan_oracle(self):
        video = tagged_video(9, 2)
        cfg = SamplerConfig(
            total_frames=9,
            frames_per_trial=6,
            tokens_per_frame=2,
            trials=4,
            ratios=(0.9, 0.5, 0.3, 1.0),
        )
        packed = pack(build_trial_plans(cfg, Rng(11)), video, [0, 1])
        seg = segment_ids(packed)
        oracle = [
            max(p for p in range(packed.total_length) if seg[p] == s)
            for s in range(packed.num_segments)
        ]
        assert last_positions(packed) == oracle


class TestMaskSpec:
    def test_immutable_arrays(self):
        packed = pack([full_plan(2, 2)], tagged_video(2, 2), [1])
        with pytest.raises(ValueError):
            packed.token_ids[0] = 5
        with pytest.raises(ValueError):
            packed.rows[0] = 5


class TestSliceSegment:
    def test_roundtrip_content(self):
        video = tagged_video(6, 2)
        cfg = SamplerConfig(
            total_frames=6,
            frames_per_trial=4,
            tokens_per_frame=2,
            trials=2,
            ratios=(0.75, 0.5),
        )
        packed = pack(build_trial_plans(cfg, Rng(9)), video, [3, 1])
        for i, seg in enumerate(packed.segments):
            solo = slice_segment(packed, i)
            assert solo.num_segments == 1
            span = slice(seg.start, seg.start + seg.length)
            assert np.array_equal(solo.embeddings, packed.embeddings[span])
            assert np.array_equal(solo.token_ids, packed.token_ids[span])
            assert solo.video is packed.video
            assert np.array_equal(pos_in_segment(solo), np.arange(seg.length))

    def test_index_out_of_range(self):
        packed = pack([full_plan(2, 2)], tagged_video(2, 2), [])
        with pytest.raises(ContractError):
            slice_segment(packed, 1)


class TestDebugJson:
    def test_golden_structure(self):
        video = tagged_video(2, 2)
        packed = append_token(pack([full_plan(2, 2)], video, [5, 6]), 7)
        golden = {
            "segments": [[0, 7]],
            "token_ids": [-1, -1, -1, -1, 5, 6, 7],
        }
        assert to_debug_json(packed) == golden
        # stable serialization
        assert json.dumps(to_debug_json(packed), sort_keys=True) == json.dumps(
            golden, sort_keys=True
        )
