"""Backend tests: determinism, pair counting, packed-vs-solo equivalence,
dense oracles for both backends' forwards and attention scores, and probe
semantics."""

import collections
import dataclasses
import hashlib
import math
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t3s.errors import ConfigError, ContractError, ShapeError
from t3s.harness import gen_task
from t3s.numkernel import Rng, layer_norm, mix64
from t3s.packer import PackedSequence, append_token, kept_rows, last_positions, pack, slice_segment
from t3s.sampler import SamplerConfig, TrialPlan, build_trial_plans
from t3s import toymodel
from t3s.toymodel import (
    _QUERY_CHUNK,
    _ROW_TILE,
    ModelConfig,
    NeedleProbe,
    SeededTransformer,
    SegmentCache,
    VideoTokenStream,
    _gelu,
    _row_tiles,
    _segment_runs,
    build_model,
    needle_answer,
    needle_direction,
    worker_count,
)

from helpers import cached_kv, materialise, pos_in_segment, segment_ids, segments_of
from test_forward_digests import DESK, decode_shape, dense_plan, ttft_passes

TESTS = Path(__file__).parent

CFG = ModelConfig(layers=2, model_dim=16, heads=2, vocab=16, max_positions=1024, init_seed=3)

# segment lengths below, on and just past the first two query-chunk seams,
# and around the fourth and eighth, where the key horizon spans many chunks
_C = _QUERY_CHUNK
SEAM_LENGTHS = [
    _C - 1, _C, _C + 1, 2 * _C, 2 * _C + 1,
    4 * _C - 1, 4 * _C, 4 * _C + 1, 8 * _C, 8 * _C + 1,
]


def make_packed(seed=0, trials=2, total_frames=10, frames_per_trial=6,
                tokens_per_frame=2, ratios=None, text=(1, 2, 3), needles=frozenset(),
                cfg=CFG):
    rng = Rng(seed)
    video = VideoTokenStream(
        total_frames, tokens_per_frame, cfg.model_dim, rng.child(0).key, needles
    )
    sampler = SamplerConfig(
        total_frames=total_frames,
        frames_per_trial=frames_per_trial,
        tokens_per_frame=tokens_per_frame,
        trials=trials,
        ratios=ratios or (0.75,) * trials,
    )
    plans = build_trial_plans(sampler, rng.child(1))
    return pack(plans, video, list(text)), plans, video


def block_causal_matrix(packed):
    """The attention rule as a dense matrix: p may attend q iff both lie in
    the same segment and q <= p."""
    seg = segment_ids(packed)
    n = packed.total_length
    causal = np.arange(n)[None, :] <= np.arange(n)[:, None]
    return (seg[:, None] == seg[None, :]) & causal


class TestModelConfig:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, model_dim=10, heads=3, vocab=8, max_positions=64)

    def test_vocab_floor(self):
        with pytest.raises(ConfigError):
            ModelConfig(layers=1, model_dim=8, heads=2, vocab=3, max_positions=64)


class TestBuildModel:
    def test_identical_config_identical_weights(self):
        def checksum(model):
            return hashlib.sha256(
                model.weights["token_embedding"].tobytes()
            ).hexdigest()

        assert checksum(build_model(CFG)) == checksum(build_model(CFG))

    def test_different_seed_different_weights(self):
        other = dataclasses.replace(CFG, init_seed=99)
        a = build_model(CFG).weights["token_embedding"]
        b = build_model(other).weights["token_embedding"]
        assert not np.array_equal(a, b)

    def test_one_token_forward_finite(self):
        packed, _, video = make_packed(trials=1, frames_per_trial=1,
                                       total_frames=1, tokens_per_frame=1,
                                       ratios=(1.0,), text=())
        res = build_model(CFG).forward(packed)
        assert res.logits.shape == (1, CFG.vocab)
        assert np.isfinite(res.logits).all()

    def test_weight_scale(self):
        w = build_model(CFG).weights["layer0.attn_query"]
        assert abs(w.std() - 1.0 / math.sqrt(CFG.model_dim)) < 0.05


class TestEmbedFrames:
    def test_deterministic(self):
        a = VideoTokenStream(4, 3, CFG.model_dim, Rng(5).key)
        b = VideoTokenStream(4, 3, CFG.model_dim, Rng(5).key)
        assert np.array_equal(materialise(a), materialise(b))
        c = VideoTokenStream(4, 3, CFG.model_dim, Rng(5).child(0).key)
        assert not np.array_equal(materialise(a), materialise(c))

    def test_shape(self):
        v = VideoTokenStream(2, 3, CFG.model_dim, key=7)
        assert materialise(v).shape == (2, 3, CFG.model_dim)
        assert v.rows(np.array([5, 0, 5])).shape == (3, CFG.model_dim)
        assert v.rows(np.array([], dtype=np.int64)).shape == (0, CFG.model_dim)
        for bad in (
            dict(num_frames=0),
            dict(tokens_per_frame=0),
            dict(model_dim=0),
            dict(needle_frames=frozenset({2})),
            dict(needle_frames=frozenset({-1})),
        ):
            with pytest.raises(ConfigError):
                dataclasses.replace(v, **bad)
        for outside in (-1, 6):
            with pytest.raises(ContractError):
                v.rows(np.array([0, outside]))

    def test_odd_width(self):
        # ceil(D/2) normal pairs per row; the last sine normal is dropped
        v = VideoTokenStream(3, 2, 5, key=1)
        wide = VideoTokenStream(3, 2, 6, key=1)
        got, pairs = v.rows(np.arange(6)), wide.rows(np.arange(6))
        assert got.shape == (6, 5)
        scale = math.sqrt(6 / 5)
        assert np.allclose(got[:, :3], pairs[:, :3] * scale, rtol=1e-15, atol=0)
        assert np.allclose(got[:, 3:], pairs[:, 3:5] * scale, rtol=1e-15, atol=0)

    def test_needle_frames_have_unit_cosine(self):
        video = VideoTokenStream(5, 4, CFG.model_dim, Rng(0).key, frozenset({1, 3}))
        assert video.needle_mask.tolist() == [False, True, False, True, False]
        assert not video.needle_mask.flags.writeable
        v = materialise(video)
        direction = needle_direction(CFG.model_dim)
        for f in (1, 3):
            assert (v[f] == direction).all()
            cos = v[f] @ direction / np.linalg.norm(v[f], axis=1)
            assert np.abs(cos - 1.0).max() < 1e-12
        # ordinary frames are far from the reserved direction, and do not
        # depend on which frames carry the needle
        rows = v[0]
        cos = rows @ direction / np.linalg.norm(rows, axis=1)
        assert np.abs(cos).max() < 0.99
        plain = materialise(dataclasses.replace(video, needle_frames=frozenset()))
        assert np.array_equal(v[[0, 2, 4]], plain[[0, 2, 4]])

    def test_pinned_rows(self):
        # freezes the first rows of one key. Values are rounded to 1e-9
        # before hashing, so a last-bit difference in log, cos or sin between
        # platforms does not trip it, but a change to the stream does
        v = VideoTokenStream(4, 2, 16, key=0x5EED, needle_frames=frozenset({3}))
        rows = np.round(v.rows(np.arange(8)), 9)
        got = hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()[:16]
        assert got == "a25a53c629671bb9", rows[0]

    def test_lazy_at_a_million_frames(self):
        # an eager draw of this video would hold 10^6 * 16 * 64 float64s (8 GB)
        model = ModelConfig(layers=1, model_dim=64, heads=1, vocab=16, max_positions=64)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            task = gen_task(1_000_000, 16, 1, seed=3, model=model)
            seconds = time.perf_counter() - start
            plan = TrialPlan(np.array([0, 999_999]), np.array([0, 17, 31]), 1.0)
            packed = pack([plan], task.video, task.question)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seconds < 0.5
        assert peak < 4 * 2**20
        last = task.video.rows(np.array([999_999 * 16 + 15]))
        assert np.array_equal(packed.embeddings[2], last[0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 5), min_size=1, max_size=4),
                st.lists(st.integers(0, 11), max_size=8),
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_packed_rows_match_materialised_video(self, key, trials):
        # frames in any order, repeated or not, and kept positions in any
        # order: every visual row pack reads equals the same row of the
        # whole video drawn at once
        video = VideoTokenStream(6, 3, 8, key, frozenset({4}))
        whole = materialise(video)
        plans = []
        for frames, keep in trials:
            f = np.array(frames, dtype=np.int64)
            k = np.array([p for p in keep if p < 3 * len(f)], dtype=np.int64)
            plans.append(TrialPlan(f, k, 1.0))
        packed = pack(plans, video, [1])
        for seg, plan in zip(packed.segments, plans):
            k = plan.token_keep
            want = whole[plan.frame_indices[k // 3], k % 3]
            assert np.array_equal(packed.embeddings[seg.start : seg.start + len(k)], want)

    def test_distribution(self):
        # 8192 rows x 64 columns of one key. Under iid N(0, 1/D) entries each
        # statistic below is a z-score; the bound 4.5 holds for every one of
        # them (2147 in all) with probability above 0.98
        D = 64
        x = VideoTokenStream(512, 16, D, key=0xD157).rows(np.arange(8192))
        n = len(x)
        assert abs(x.mean() * math.sqrt(n * D * D)) < 4.5
        col_mean_z = x.mean(axis=0) * math.sqrt(n * D)
        assert np.abs(col_mean_z).max() < 4.5
        var_z = (x.var(axis=0, ddof=1) * D - 1.0) / math.sqrt(2.0 / (n - 1))
        assert np.abs(var_z).max() < 4.5
        corr = np.corrcoef(x, rowvar=False)[np.triu_indices(D, k=1)]
        assert np.abs(corr * math.sqrt(n)).max() < 4.5
        for lag in (1, 16):  # the next patch, the same patch of the next frame
            lagged = (x[:-lag] * x[lag:]).mean() * D
            assert abs(lagged * math.sqrt((n - lag) * D)) < 4.5


class TestForwardContract:
    def test_pair_count_single_segment(self):
        packed, _, _ = make_packed(trials=1, ratios=(1.0,))
        length = packed.total_length
        res = build_model(CFG).forward(packed)
        assert res.pair_count == CFG.layers * CFG.heads * length * (length + 1) // 2

    def test_pair_count_additive_over_segments(self):
        packed, _, _ = make_packed(trials=3, ratios=(1.0, 0.5, 0.75))
        res = build_model(CFG).forward(packed)
        expected = sum(s.length * (s.length + 1) // 2 for s in packed.segments)
        assert res.pair_count == CFG.layers * CFG.heads * expected

    def test_over_length_rejected(self):
        tiny = dataclasses.replace(CFG, max_positions=4)
        packed, _, _ = make_packed()
        with pytest.raises(ContractError):
            SeededTransformer(tiny).forward(packed)

    def test_video_width_must_match_model(self):
        packed, _, _ = make_packed(cfg=dataclasses.replace(CFG, model_dim=8, heads=1))
        with pytest.raises(ShapeError, match="video model_dim 8 != config 16"):
            build_model(CFG).forward(packed)

    def test_token_id_outside_vocab_rejected(self):
        packed, _, _ = make_packed(text=(CFG.vocab,))
        with pytest.raises(ContractError):
            build_model(CFG).forward(packed)

    def test_determinism_bit_identical(self):
        packed, _, _ = make_packed()
        a = build_model(CFG).forward(packed).logits
        b = build_model(CFG).forward(packed).logits
        assert np.array_equal(a, b)

    def test_pinned_logits(self):
        # freezes every position's logits on one fixed packed input, rounded
        # to 1e-9 before hashing as in test_pinned_rows, so a change to the
        # video rows, the packing or the forward shows
        got = hashlib.sha256(
            np.round(build_model(CFG).forward(pinned_packed()).logits, 9)
            .astype("<f8").tobytes()
        ).hexdigest()[:16]
        assert got == "e18fadfef9312935"


def pinned_packed():
    """Two trials over a 6-frame video with a needle in frame 2, then a text
    prompt and one appended token."""
    video = VideoTokenStream(6, 3, CFG.model_dim, key=0x5EED, needle_frames=frozenset({2}))
    plans = [
        TrialPlan(np.array([0, 2, 5]), np.array([0, 1, 4, 6, 8]), 0.5),
        TrialPlan(np.array([1, 2, 3, 4]), np.array([2, 3, 7, 11]), 0.3),
    ]
    return append_token(pack(plans, video, [1, 2, 3]), 4)


def _probe_for(cfg, noise=0.05):
    return NeedleProbe(cfg.vocab, noise_scale=noise)


class TestPackedVsSoloEquivalence:
    @pytest.mark.parametrize("backend_kind", ["transformer", "probe"])
    def test_segment_final_logits_match(self, backend_kind):
        packed, _, _ = make_packed(
            trials=3, ratios=(0.9, 0.6, 0.4), needles=frozenset({2})
        )
        backend = (
            build_model(CFG) if backend_kind == "transformer" else _probe_for(CFG)
        )
        full = backend.forward(packed).logits
        for i, p in enumerate(last_positions(packed)):
            solo = backend.forward(slice_segment(packed, i)).logits
            assert np.abs(full[p] - solo[-1]).max() < 1e-9

    @pytest.mark.parametrize("backend_kind", ["transformer", "probe"])
    def test_perturbing_one_segment_leaves_others_unchanged(self, backend_kind):
        packed, _, video = make_packed(trials=3, needles=frozenset({1}))
        backend = (
            build_model(CFG) if backend_kind == "transformer" else _probe_for(CFG)
        )
        # segment 1 opens with visual rows: move its first three to other rows
        target = packed.segments[1]
        first = np.count_nonzero(packed.token_ids[: target.start] < 0)
        rows = packed.rows.copy()
        n = video.num_frames * video.tokens_per_frame
        rows[first : first + 3] = (rows[first : first + 3] + 5) % n
        poked = dataclasses.replace(packed, rows=rows)
        before = backend.forward(packed).logits
        after = backend.forward(poked).logits
        span = slice(target.start, target.start + target.length)
        assert (before[span] != after[span]).any()
        for j in (0, 2):
            seg = packed.segments[j]
            span = slice(seg.start, seg.start + seg.length)
            assert np.abs(before[span] - after[span]).max() <= 1e-12

    def test_equivalence_after_appends(self):
        packed, _, _ = make_packed(trials=2)
        packed = append_token(append_token(packed, 4), 7)
        model = build_model(CFG)
        full = model.forward(packed).logits
        for i, p in enumerate(last_positions(packed)):
            solo = model.forward(slice_segment(packed, i)).logits
            assert np.abs(full[p] - solo[-1]).max() < 1e-9


def probe_oracle_logits(probe, packed, allowed):
    """Oracle for NeedleProbe.forward, from its docstring, one Python int per
    position: a visual position's signature comes from its video's key and
    its row id, and it is a needle token when its row's frame is one of the
    video's needle frames; a vocabulary position's signature comes from its
    id. Position p's logit at the video's answer id, 1 + mix64(key ^
    _ANSWER_TAG) % (vocab - 1), counts the needle tokens it may attend, and
    its noise is seeded by XOR-ing the position-keyed signature of every
    position it may attend, then mixing in the video's key."""
    from t3s.toymodel import _ANSWER_TAG, _SIG_ID_TAG, _SIG_POS_TAG, _SIG_ROW_TAG, _SIG_SEED_TAG

    video = packed.video
    rows = iter(packed.rows.tolist())
    sig, needle = [], []
    for t in packed.token_ids.tolist():
        if t >= 0:
            sig.append(mix64(t ^ _SIG_ID_TAG))
            needle.append(0)
        else:
            r = next(rows)
            sig.append(mix64(r ^ mix64(video.key ^ _SIG_ROW_TAG)))
            needle.append(int(r // video.tokens_per_frame in video.needle_frames))
    seed_mixed = mix64(video.key ^ _SIG_SEED_TAG)
    answer = 1 + mix64(video.key ^ _ANSWER_TAG) % (probe.vocab - 1)
    # q attends itself and every earlier position of its segment
    pos = allowed.sum(axis=1) - 1
    logits = np.empty((packed.total_length, probe.vocab))
    for p in range(packed.total_length):
        attended = np.flatnonzero(allowed[p]).tolist()
        acc = 0
        for q in attended:
            acc ^= mix64(sig[q] ^ mix64(int(pos[q]) ^ _SIG_POS_TAG))
        h = mix64(acc ^ seed_mixed)
        for d in range(probe.vocab):
            u = (mix64(h ^ mix64(7 + d)) >> 11) / (1 << 53)
            logits[p, d] = u * (2.0 * probe.noise_scale) - probe.noise_scale
        logits[p, answer] = sum(needle[q] for q in attended)
    return logits


class TestDenseOracles:
    def test_chunked_forward_matches_dense_oracle(self):
        # two segments span chunk seams (about 3 and 2 chunks long) and the
        # third fits in one chunk
        packed, _, _ = make_packed(
            trials=3, total_frames=_QUERY_CHUNK + 10, frames_per_trial=_QUERY_CHUNK,
            tokens_per_frame=3, ratios=(1.0, 0.7, 0.3),
        )
        long = [s for s in packed.segments if s.length > _QUERY_CHUNK]
        assert len(long) == 2
        model = build_model(CFG)
        fast = model.forward(packed)
        _, logits = materialized_attention(model, packed, block_causal_matrix(packed))
        assert np.abs(fast.logits - logits).max() < 1e-9
        triangles = sum(s.length * (s.length + 1) // 2 for s in packed.segments)
        assert fast.pair_count == CFG.layers * CFG.heads * triangles

    @pytest.mark.parametrize("length", [1] + SEAM_LENGTHS)
    def test_chunk_seams_match_dense_oracle(self, length):
        # one segment per length: below, on and just past each chunk seam,
        # where the diagonal block's triangle must line up with its keys
        packed, _, _ = make_packed(
            trials=1, total_frames=length, frames_per_trial=length,
            tokens_per_frame=1, ratios=(1.0,), text=(),
        )
        assert packed.total_length == length
        model = build_model(CFG)
        mask_matrix = block_causal_matrix(packed)
        mats, logits = materialized_attention(model, packed, mask_matrix)
        assert np.abs(model.forward(packed).logits - logits).max() < 1e-9
        oracle = received_oracle(mats, mask_matrix)
        assert np.abs(model.attention_received(packed) - oracle).max() < 1e-9

    def test_probe_forward_matches_hash_oracle(self):
        packed, _, _ = make_packed(trials=2, needles=frozenset({0, 4}))
        packed = append_token(packed, 5)
        probe = _probe_for(CFG)
        allowed = block_causal_matrix(packed)
        fast = probe.forward(packed)
        assert np.array_equal(fast.logits, probe_oracle_logits(probe, packed, allowed))
        assert fast.pair_count == int(allowed.sum())


# a video whose every tenth frame carries the needle
MIXED_VIDEO = VideoTokenStream(
    40, 4, CFG.model_dim, key=0xC0DE, needle_frames=frozenset(range(0, 40, 10))
)


def mixed_segment(g, length):
    """`segments_of` codes of MIXED_VIDEO rows in any order, some on a needle
    frame, mixed with vocabulary ids."""
    rows = MIXED_VIDEO.num_frames * MIXED_VIDEO.tokens_per_frame
    return np.where(
        g.random(length) < 0.3, g.integers(0, CFG.vocab, length), -1 - g.integers(0, rows, length)
    )


class TestSegmentCache:
    @pytest.mark.parametrize("backend_kind", ["transformer", "probe"])
    @pytest.mark.parametrize("length", SEAM_LENGTHS)
    def test_extensions_match_full_forward(self, backend_kind, length):
        # each segment is read in three pieces through one cache; the pieces
        # differ across segments and land on both sides of each query-chunk
        # seam, as cached keys and as new queries
        pieces = [(37, length, 2), (5, length // 2 + 1, 1), (length, 1, 3)]
        g = Rng(length).generator()
        parts = [mixed_segment(g, sum(p)) for p in pieces]
        full = segments_of(MIXED_VIDEO, parts)
        backend = build_model(CFG) if backend_kind == "transformer" else _probe_for(CFG)
        want = backend.forward(full).logits
        cache = SegmentCache()
        for k in range(3):
            cuts = [(sum(p[:k]), sum(p[: k + 1])) for p in pieces]
            got = backend.last_logits(
                segments_of(MIXED_VIDEO, [c[lo:hi] for c, (lo, hi) in zip(parts, cuts)]),
                cache,
            )
            ends = [s.start + hi - 1 for s, (_, hi) in zip(full.segments, cuts)]
            if backend_kind == "transformer":
                assert np.abs(got - want[ends]).max() < 1e-9
            else:
                assert np.array_equal(got, want[ends])
            assert cache.lengths == [hi for _, hi in cuts]

    @pytest.mark.parametrize("backend_kind", ["transformer", "probe"])
    def test_failed_extension_leaves_cache_unchanged(self, backend_kind):
        packed, _, _ = make_packed(trials=2)
        backend = build_model(CFG) if backend_kind == "transformer" else _probe_for(CFG)
        cache = SegmentCache()
        backend.last_logits(packed, cache)
        lengths, state = list(cache.lengths), cache.state
        three = segments_of(MIXED_VIDEO, [[4]] * 3)
        with pytest.raises(ContractError, match="cache holds 2 segments"):
            backend.last_logits(three, cache)
        assert cache.lengths == lengths and cache.state is state
        # a token id outside the vocabulary, on both backends alike
        outside = segments_of(MIXED_VIDEO, [[4], [CFG.vocab]])
        with pytest.raises(ContractError, match="token id outside vocabulary"):
            backend.forward(outside)
        with pytest.raises(ContractError, match="token id outside vocabulary"):
            backend.last_logits(outside, cache)
        assert cache.lengths == lengths and cache.state is state

    @pytest.mark.parametrize(
        "first, then",
        [("transformer", "other_seed"), ("probe", "transformer"), ("transformer", "probe")],
    )
    def test_cache_serves_one_backend(self, first, then):
        # another backend continuing a cache raises before any pass and
        # leaves the cache as it was: an other-seed transformer would read
        # the cached keys as its own, and the probe and the transformer
        # each other's state
        build = {
            "transformer": lambda: build_model(CFG),
            "other_seed": lambda: build_model(dataclasses.replace(CFG, init_seed=4)),
            "probe": lambda: _probe_for(CFG),
        }
        owner, other = build[first](), build[then]()
        a, b = segments_of(MIXED_VIDEO, [[5, -1, 2], [3]]), segments_of(MIXED_VIDEO, [[6], [7]])
        cache = SegmentCache()
        owner.last_logits(a, cache)
        lengths, state = list(cache.lengths), cache.state
        with pytest.raises(ContractError, match="filled by another backend"):
            other.last_logits(b, cache)
        assert cache.lengths == lengths and cache.state is state
        owner.last_logits(b, cache)
        assert cache.lengths == [4, 2]


def scaled_scores(scale, layers=None):
    """A CFG model whose query and key weights are each multiplied by
    sqrt(scale) in `layers` (default: every layer), so its attention scores
    are `scale` times the seeded model's there."""
    model = build_model(CFG)
    for layer in range(CFG.layers) if layers is None else layers:
        for name in ("attn_query", "attn_key"):
            model.weights[f"layer{layer}.{name}"] *= math.sqrt(scale)
    return model


def layer0_qk(model, packed):
    """(total, heads, head_dim) layer-0 queries (scaled by 1/sqrt(head_dim))
    and keys of every position, computed directly from the weights."""
    from t3s.toymodel import _sinusoidal

    cfg, w = model.config, model.weights
    x = packed.embeddings.copy()
    ids = packed.token_ids
    x[ids >= 0] = w["token_embedding"][ids[ids >= 0]]
    h = layer_norm(x + _sinusoidal(pos_in_segment(packed), cfg.model_dim))
    q, k = (
        (h @ w[f"layer0.attn_{name}"]).reshape(len(h), cfg.heads, model.head_dim)
        for name in ("query", "key")
    )
    return q / math.sqrt(model.head_dim), k


# `exp` of a score past 709.78 overflows, and the PV product then meets inf
OVERFLOW_WARNINGS = [
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
]


class TestScoreBound:
    """Scores reach `exp` unshifted; the softmax must match the dense oracle
    while its denominators stay in the double range, and a layer whose
    scores overflow `exp` raises ContractError naming it."""

    @pytest.mark.parametrize(
        "scale, layers",
        [(1, None), (8, None), (30, None), (150, [1])],
        ids=["1", "8", "30", "150-layer1"],
    )
    def test_large_scores_match_dense_oracle(self, scale, layers):
        # scores up to 150 times the seeded model's, in layer 1 alone at 150,
        # where its Cauchy-Schwarz bounds of 870-980 were refused when scores
        # were shifted by them; the segments sit on and around chunk seams,
        # several per pass
        model = scaled_scores(scale, layers)
        g = Rng(scale).generator()
        for lengths in (SEAM_LENGTHS[:5], SEAM_LENGTHS[5:]):
            packed = segments_of(MIXED_VIDEO, [mixed_segment(g, n) for n in lengths])
            mask_matrix = block_causal_matrix(packed)
            mats, logits = materialized_attention(model, packed, mask_matrix)
            assert np.abs(model.forward(packed).logits - logits).max() < 1e-9
            oracle = received_oracle(mats, mask_matrix)
            assert np.abs(model.attention_received(packed) - oracle).max() < 1e-9

    @pytest.mark.filterwarnings(*OVERFLOW_WARNINGS)
    def test_bound_past_the_limit_raises(self):
        # layer 1's scores scaled 1000x overflow `exp`: each call names the
        # layer instead of returning NaN logits, and the cache given to
        # `last_logits` stays empty
        model = scaled_scores(1000, layers=[1])
        packed, _, _ = make_packed(trials=2)
        cache = SegmentCache()
        calls = (model.forward, model.attention_received, lambda p: model.last_logits(p, cache))
        for call in calls:
            with pytest.raises(ContractError, match="layer 1: softmax denominator"):
                call(packed)
        assert cache.lengths == [] and cache.state is None and cache.backend is None

    @pytest.mark.filterwarnings(*OVERFLOW_WARNINGS)
    def test_cached_bound_grows(self):
        # segment 0 is continued by a token whose layer-0 key is longer than
        # every cached key's, then by an ordinary one; every step's segment
        # ends must match a cache-free forward
        model = scaled_scores(8)
        # a token whose layer-0 head-0 key is as long as the weights allow:
        # the top left singular vector of the head's block, centred since
        # layer norm output has zero mean
        long_key, long_query = 9, 10
        block = model.weights["layer0.attn_key"][:, : model.head_dim]
        top = np.linalg.svd(block - block.mean(axis=0))[0][:, 0]
        model.weights["token_embedding"][long_key] = 30.0 * top
        rows = MIXED_VIDEO.num_frames * MIXED_VIDEO.tokens_per_frame
        g = Rng(5).generator()
        steps = [
            [-1 - g.integers(0, rows, 40), -1 - g.integers(0, rows, 37)],
            [[long_key], [2]],
            [[3], [4]],
        ]
        cache = SegmentCache()
        parts = [np.empty(0, dtype=np.int64)] * 2
        for k, step in enumerate(steps):
            parts = [np.concatenate([p, s]) for p, s in zip(parts, step)]
            full = segments_of(MIXED_VIDEO, parts)
            got = model.last_logits(segments_of(MIXED_VIDEO, step), cache)
            want = model.forward(full).logits[last_positions(full)]
            assert np.abs(got - want).max() < 1e-9
            if k == 1:
                # the premise: the new key outgrows every cached one
                k_sq = (layer0_qk(model, full)[1][: len(parts[0])] ** 2).sum(axis=2)
                assert k_sq[-1].max() > 2.0 * k_sq[:-1].max()

        # one more token per segment, in segment 0 a query aimed at the
        # cached long key's head-0 key, with layer 0's queries scaled so
        # that only that query's product with the cached long key overflows
        # `exp`: the check must see the cached keys
        long_at = len(steps[0][0])
        block = model.weights["layer0.attn_query"][:, : model.head_dim]
        aim = block @ layer0_qk(model, full)[1][long_at, 0]
        aim -= aim.mean()
        model.weights["token_embedding"][long_query] = 30.0 * aim / np.linalg.norm(aim)
        step = [[long_query], [6]]
        full = segments_of(MIXED_VIDEO, [np.concatenate([p, s]) for p, s in zip(parts, step)])
        q, k = layer0_qk(model, full)
        scores = [
            np.einsum("hd,thd->ht", q[s.start + s.length - 1], k[s.start : s.start + s.length])
            for s in full.segments
        ]
        with_long = scores[0][0, long_at]
        scores[0][0, long_at] = 0.0
        others = max(np.abs(s).max() for s in scores)
        assert with_long > 1.1 * others
        model.weights["layer0.attn_query"] *= 720.0 / math.sqrt(with_long * others)
        with pytest.raises(ContractError, match="layer 0: softmax denominator"):
            model.last_logits(segments_of(MIXED_VIDEO, step), cache)


def textbook_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def test_gelu_matches_textbook_formula():
    g = Rng(4).generator()
    for x in (np.linspace(-40.0, 40.0, 200_001), g.standard_normal(1_000_000) * 3.0):
        before = x.copy()
        assert np.abs(_gelu(x) - textbook_gelu(x)).max() <= 1e-14
        assert np.array_equal(x, before)


def materialized_attention(model, packed, mask_matrix):
    """Oracle: recompute every layer's attention matrix densely (L x L), with
    the textbook GELU and an explicitly scaled, masked, normalised softmax.

    Returns the per-layer (heads, L, L) attention matrices and the logits."""
    from t3s.toymodel import _sinusoidal, _split_heads

    cfg = model.config
    w = model.weights
    x = packed.embeddings.copy()
    id_pos = packed.token_ids >= 0
    x[id_pos] = w["token_embedding"][packed.token_ids[id_pos]]
    x = x + _sinusoidal(pos_in_segment(packed), cfg.model_dim)
    bias = np.where(mask_matrix, 0.0, -np.inf)
    mats = []
    head_dim = cfg.model_dim // cfg.heads
    for layer in range(cfg.layers):
        h = layer_norm(x)
        qh = _split_heads(h @ w[f"layer{layer}.attn_query"], cfg.heads, head_dim)
        kh = _split_heads(h @ w[f"layer{layer}.attn_key"], cfg.heads, head_dim)
        vh = _split_heads(h @ w[f"layer{layer}.attn_value"], cfg.heads, head_dim)
        scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(head_dim) + bias[None]
        scores = scores - scores.max(axis=-1, keepdims=True)
        attn = np.exp(scores)
        attn = attn / attn.sum(axis=-1, keepdims=True)
        mats.append(attn)
        ctx = attn @ vh
        ctx = ctx.transpose(1, 0, 2).reshape(len(x), cfg.model_dim)
        x = x + ctx @ w[f"layer{layer}.attn_out"]
        ffn = textbook_gelu(layer_norm(x) @ w[f"layer{layer}.ffn_in"])
        x = x + ffn @ w[f"layer{layer}.ffn_out"]
    return mats, layer_norm(x) @ w["unembedding"]


def received_oracle(mats, mask_matrix):
    """Mean attention weight each position receives, from the dense matrices."""
    sums = sum(attn.sum(axis=(0, 1)) for attn in mats)
    return sums / (len(mats) * mats[0].shape[0] * mask_matrix.sum(axis=0))


class TestAttentionReceived:
    def test_matches_full_materialization_oracle(self):
        # short segments, then segments spanning more than two query chunks,
        # whose row sums come from the PV matmul chunk by chunk
        short, _, _ = make_packed(trials=2, ratios=(0.8, 0.5))
        long, _, _ = make_packed(
            trials=2, total_frames=_QUERY_CHUNK, frames_per_trial=_QUERY_CHUNK,
            tokens_per_frame=3, ratios=(1.0, 0.8),
        )
        assert all(s.length > 2 * _QUERY_CHUNK for s in long.segments)
        model = build_model(CFG)
        for packed in (short, long):
            got = model.attention_received(packed)
            mask_matrix = block_causal_matrix(packed)
            mats, _ = materialized_attention(model, packed, mask_matrix)
            oracle = received_oracle(mats, mask_matrix)
            assert np.abs(got - oracle).max() < 1e-9
            assert (got >= 0.0).all()

    def test_rows_are_distributions(self):
        packed, _, _ = make_packed(trials=2)
        model = build_model(CFG)
        mask_matrix = block_causal_matrix(packed)
        for attn in materialized_attention(model, packed, mask_matrix)[0]:
            assert (attn >= 0.0).all()
            assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12

    def test_uniform_attention_gives_equal_scores(self):
        # zeroed query/key weights: every score is 0, so query q spreads equal
        # weight 1/(q+1) over keys 0..q of its segment, and key j receives
        # the mean of 1/(q+1) over the queries q >= j that may attend it
        model = SeededTransformer(CFG)
        for w in model.weights.values():
            w[:] = 0.0
        packed, _, _ = make_packed(trials=2, ratios=(1.0, 0.5))
        got = model.attention_received(packed)
        for seg in packed.segments:
            n = seg.length
            expected = [np.mean(1.0 / np.arange(j + 1, n + 1)) for j in range(n)]
            span = slice(seg.start, seg.start + n)
            assert np.abs(got[span] - expected).max() < 1e-12


def random_packs(seed, sequences):
    """`sequences` packed sequences, each on its own video with its own key,
    needle frames and segment count."""
    g = Rng(seed).generator()
    packs = []
    for _ in range(sequences):
        frames, per_frame = int(g.integers(1, 9)), int(g.integers(1, 4))
        needles = frozenset(int(f) for f in np.flatnonzero(g.random(frames) < 0.3))
        video = VideoTokenStream(frames, per_frame, CFG.model_dim, int(g.integers(0, 2**63)), needles)
        lengths = g.integers(1, 12, int(g.integers(1, 4)))
        packs.append(segments_of(video, [
            np.where(g.random(n) < 0.3, g.integers(0, CFG.vocab, n), -1 - g.integers(0, frames * per_frame, n))
            for n in lengths
        ]))
    return packs


class TestProbeLastLogits:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sequences=st.integers(1, 5),
        backend_kind=st.sampled_from(["transformer", "probe"]),
        noise=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_rows_equal_forward_at_last_positions(self, seed, sequences, backend_kind, noise):
        # one backend over packs of different videos, so each pack's rows
        # must read its own video's key, answer id and needles
        packs = random_packs(seed, sequences)
        backend = build_model(CFG) if backend_kind == "transformer" else _probe_for(CFG, noise)
        got = np.concatenate([backend.last_logits(packed) for packed in packs])
        want = np.concatenate(
            [backend.forward(packed).logits[last_positions(packed)] for packed in packs]
        )
        if backend_kind == "probe":
            assert np.array_equal(got, want)
        else:
            # the transformer's last layer runs one query row per segment,
            # whose products BLAS rounds unlike the rows of a full pass
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("backend_kind", ["transformer", "probe"])
    def test_no_sequences_give_no_rows(self, backend_kind):
        # a packed sequence of no segments has no last row; a cache that
        # holds segments refuses it and stays as it was
        backend = build_model(CFG) if backend_kind == "transformer" else _probe_for(CFG)
        empty = PackedSequence((), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), MIXED_VIDEO)
        cache = SegmentCache()
        for given_cache in (None, cache):
            rows = backend.last_logits(empty, given_cache)
            assert rows.shape == (0, CFG.vocab) and rows.dtype == np.float64
        assert cache.lengths == [] and cache.state is None
        backend.last_logits(segments_of(MIXED_VIDEO, [[5], [1, 2]]), cache)
        lengths, state = list(cache.lengths), cache.state
        with pytest.raises(ContractError, match="cache holds 2 segments"):
            backend.last_logits(empty, cache)
        assert cache.lengths == lengths and cache.state is state


def probe_block(data, max_tasks=5):
    """A block of tasks for `block_logits`, drawn by hypothesis: R <=
    max_tasks videos of one shape (own keys, 0-2 needle frames each), (R, q)
    questions, per trial the (R, k_i) rows `kept_rows` gives its (R, N_i)
    frames and (R, k_i) kept tokens, N_i and k_i drawn per trial, so trials
    keep unequal shares; k_i may be 0 (a question-only segment) wherever
    q > 0. Also the packs of the same tasks, for `last_logits`."""
    g = Rng(data.draw(st.integers(0, 2**32 - 1))).generator()
    tasks = data.draw(st.integers(1, max_tasks))
    frames, per_frame = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    question_len = data.draw(st.integers(0, 3))
    videos = []
    for _ in range(tasks):
        key = data.draw(st.integers(-(2**64), 2**65))  # the probe reads key & (2**64 - 1)
        needles = g.choice(frames, data.draw(st.integers(0, min(2, frames))), replace=False)
        videos.append(VideoTokenStream(
            frames, per_frame, CFG.model_dim, key, frozenset(int(f) for f in needles)
        ))
    questions = g.integers(0, CFG.vocab, (tasks, question_len))

    def subsets(population, take):
        return np.array([np.sort(g.choice(population, take, replace=False)) for _ in videos])

    frame_rows, keep_rows = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(1, frames))
        frame_rows.append(subsets(frames, n))
        keep_rows.append(subsets(n * per_frame, data.draw(
            st.integers(0 if question_len else 1, n * per_frame)
        )))
    packs = [
        pack([TrialPlan(f[r], k[r], 1.0) for f, k in zip(frame_rows, keep_rows)], v, questions[r])
        for r, v in enumerate(videos)
    ]
    rows = [kept_rows(f, k, videos[0]) for f, k in zip(frame_rows, keep_rows)]
    return (videos, questions, rows), packs


# plans and questions `packer.segment_lengths` refuses: a trial that keeps no
# token with no question, and a negative question id
BAD_LAYOUTS = [([[0, 2]], np.empty((1, 0), dtype=np.int64), []), ([[0, 2]], [[0, 2]], [4, -1])]
BAD_LAYOUT_IDS = ["empty_segment", "negative_question"]


class TestProbeBlockLogits:
    """`block_logits` reads a block of tasks from the rows `kept_rows`
    gives their stacked plans, and gives what `last_logits` gives on the
    same tasks packed."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), noise=st.sampled_from([0.0, 0.1]))
    def test_matches_last_logits_of_packs(self, data, noise):
        block, packs = probe_block(data)
        probe = _probe_for(CFG, noise)
        got = probe.block_logits(*block)
        want = np.stack([probe.last_logits(packed) for packed in packs])
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_no_tasks_give_no_rows(self):
        empty = np.empty((0, 2), dtype=np.int64)
        rows = _probe_for(CFG).block_logits([], empty, [empty])
        assert rows.shape == (0, 1, CFG.vocab) and rows.dtype == np.float64

    def test_question_only_segment(self):
        # trial 1 keeps no token: its segment is the question alone, and its
        # answer logit counts no needle
        video = VideoTokenStream(4, 2, CFG.model_dim, 41, frozenset({1}))
        frames = [np.array([[0, 1]]), np.array([[1, 2]])]
        keeps = [np.array([[1, 2, 3]]), np.empty((1, 0), dtype=np.int64)]
        plans = [TrialPlan(f[0], k[0], 1.0) for f, k in zip(frames, keeps)]
        probe = _probe_for(CFG)
        rows = [kept_rows(f, k, video) for f, k in zip(frames, keeps)]
        got = probe.block_logits([video], [[3, 5]], rows)
        assert np.array_equal(got[0], probe.last_logits(pack(plans, video, [3, 5])))
        assert got[0, :, needle_answer(video.key, CFG.vocab)].tolist() == [2.0, 0.0]

    def test_question_outside_vocabulary_raises_as_last_logits(self):
        video = VideoTokenStream(4, 2, CFG.model_dim, 41)
        frames, keeps = [np.array([[0, 3]])], [np.array([[0, 2]])]
        packed = pack([TrialPlan(frames[0][0], keeps[0][0], 1.0)], video, [2, CFG.vocab])
        probe = _probe_for(CFG)
        with pytest.raises(ContractError) as want:
            probe.last_logits(packed)
        with pytest.raises(ContractError) as got:
            probe.block_logits([video], [[2, CFG.vocab]], [kept_rows(frames[0], keeps[0], video)])
        assert str(got.value) == str(want.value) == "token id outside vocabulary"

    # bad frames and kept tokens raise in `kept_rows`, tested with `pack`
    @pytest.mark.parametrize("frames, keeps, text", BAD_LAYOUTS, ids=BAD_LAYOUT_IDS)
    def test_bad_plans_raise_as_pack(self, frames, keeps, text):
        video = VideoTokenStream(4, 2, CFG.model_dim, 41)
        frames, keeps = np.array(frames), np.array(keeps)
        with pytest.raises(ContractError) as want:
            pack([TrialPlan(frames[0], keeps[0], 1.0)], video, text)
        with pytest.raises(ContractError) as got:
            _probe_for(CFG).block_logits(
                [video], np.array([text], dtype=np.int64), [kept_rows(frames, keeps, video)]
            )
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("row", [8, -1], ids=["row_past_video", "negative_row"])
    def test_row_outside_the_video_raises(self, row):
        # per_row would read task 1's needle mask at task 0's row 8 of a
        # 4-frame, 2-token video, and task 0's at task 1's row -1
        videos = [VideoTokenStream(4, 2, CFG.model_dim, key, frozenset({0})) for key in (41, 42)]
        rows = np.array([[0, 1], [2, 3]])
        rows[0 if row > 0 else 1, -1] = row
        with pytest.raises(ContractError, match="row index outside the video"):
            _probe_for(CFG).block_logits(videos, np.array([[1], [2]]), [rows])


class TestTransformerBlockLogits:
    """The transformer's `block_logits` runs one pass per task over
    `pack_rows` of the block's rows, and gives `last_logits` of the task's
    pack."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_last_logits_of_packs(self, data):
        (videos, questions, rows), packs = probe_block(data, max_tasks=4)
        model = build_model(CFG)
        got = model.block_logits(videos, questions, rows)
        assert got.shape == (len(videos), len(rows), CFG.vocab)
        for r, packed in enumerate(packs):
            assert np.array_equal(got[r], model.last_logits(packed))

    def test_question_only_segment(self):
        # trials at unequal shares, the last keeping no token: its segment
        # is the question alone
        video = VideoTokenStream(4, 2, CFG.model_dim, 41, frozenset({1}))
        frames = [np.array([[0, 1, 2]]), np.array([[1, 3]]), np.array([[0, 2]])]
        keeps = [np.array([[0, 1, 2, 3, 5]]), np.array([[1, 2]]), np.empty((1, 0), dtype=np.int64)]
        plans = [TrialPlan(f[0], k[0], 1.0) for f, k in zip(frames, keeps)]
        rows = [kept_rows(f, k, video) for f, k in zip(frames, keeps)]
        model = build_model(CFG)
        got = model.block_logits([video], np.array([[3, 5]]), rows)
        assert np.array_equal(got[0], model.last_logits(pack(plans, video, [3, 5])))

    @pytest.mark.parametrize("frames, keeps, text", BAD_LAYOUTS, ids=BAD_LAYOUT_IDS)
    def test_bad_layout_raises_as_pack(self, frames, keeps, text):
        video = VideoTokenStream(4, 2, CFG.model_dim, 41)
        frames, keeps = np.array(frames), np.array(keeps)
        with pytest.raises(ContractError) as want:
            pack([TrialPlan(frames[0], keeps[0], 1.0)], video, text)
        with pytest.raises(ContractError) as got:
            build_model(CFG).block_logits(
                [video], np.array([text], dtype=np.int64), [kept_rows(frames, keeps, video)]
            )
        assert str(got.value) == str(want.value)

    def test_no_tasks_give_no_rows(self):
        empty = np.empty((0, 2), dtype=np.int64)
        rows = build_model(CFG).block_logits([], empty, [empty, empty, empty])
        assert rows.shape == (0, 3, CFG.vocab) and rows.dtype == np.float64


# blocks whose arrays do not cover their two videos' tasks: rows for one
# task, a question array for one, and rows of one axis
BAD_BLOCKS = {
    "rows_of_one_task": ([[1], [2]], [np.array([[0, 1]])]),
    "questions_of_one_task": ([[1]], [np.array([[0, 1], [2, 3]])]),
    "flat_rows": ([[1], [2]], [np.array([0, 1])]),
}


@pytest.mark.parametrize("backend_kind", ["transformer", "probe"])
@pytest.mark.parametrize("case", BAD_BLOCKS)
def test_bad_block_shapes_raise_one_error(backend_kind, case):
    videos = [VideoTokenStream(4, 2, CFG.model_dim, key) for key in (41, 42)]
    questions, rows = BAD_BLOCKS[case]
    backend = build_model(CFG) if backend_kind == "transformer" else _probe_for(CFG)
    with pytest.raises(ContractError, match=r"^need \(R, q\) questions and \(R, k\) rows per trial$"):
        backend.block_logits(videos, np.array(questions), rows)


class TestPrunedLastLayer:
    """The transformer's `last_logits` runs its last layer on each segment's
    last row only, yet must return that row of a full pass."""

    @pytest.mark.parametrize("layers", [1, 4])
    @pytest.mark.parametrize("step", [1, 40])
    def test_rows_match_full_pass(self, layers, step):
        # several sequences, each with several segments whose lengths cross
        # the query-chunk seams; every sequence then grows by `step` tokens
        # per segment through its own cache, three times
        model = build_model(dataclasses.replace(CFG, layers=layers))
        g = Rng(10 * layers + step).generator()
        parts = [
            [mixed_segment(g, n) for n in lengths]
            for lengths in ([1, _C - 1], [_C, _C + 1, 2 * _C], [2 * _C + 1])
        ]
        caches = [SegmentCache() for _ in parts]
        new = parts
        for _ in range(4):
            got = np.concatenate(
                [model.last_logits(segments_of(MIXED_VIDEO, p), c) for p, c in zip(new, caches)]
            )
            fulls = [segments_of(MIXED_VIDEO, p) for p in parts]
            want = np.concatenate([model.forward(f).logits[last_positions(f)] for f in fulls])
            assert np.abs(got - want).max() <= 1e-12
            new = [[mixed_segment(g, step) for _ in p] for p in parts]
            parts = [[np.concatenate(s) for s in zip(p, q)] for p, q in zip(parts, new)]

    def test_last_layer_runs(self):
        # scaling the last layer's FFN output must move every row
        model = build_model(CFG)
        packs = random_packs(3, 3)
        before = np.concatenate([model.last_logits(p) for p in packs])
        model.weights[f"layer{CFG.layers - 1}.ffn_out"] *= 1.5
        after = np.concatenate([model.last_logits(p) for p in packs])
        assert (np.abs(after - before).max(axis=1) > 1e-6).all()

    def test_every_key_is_read(self):
        # a middle token of one segment, changed, must move that segment's
        # row and no other; with one layer, only the last layer's keys and
        # values carry it there
        model = build_model(dataclasses.replace(CFG, layers=1))
        g = Rng(8).generator()
        parts = [mixed_segment(g, n) for n in (5, _C + 1, 2 * _C + 1)]
        before = model.last_logits(segments_of(MIXED_VIDEO, parts))
        for i, part in enumerate(parts):
            changed = part.copy()
            mid = len(part) // 2
            changed[mid] = 7 if part[mid] != 7 else 8
            got = model.last_logits(
                segments_of(MIXED_VIDEO, parts[:i] + [changed] + parts[i + 1 :])
            )
            moved = np.abs(got - before).max(axis=1) > 1e-9
            assert moved.tolist() == [k == i for k in range(len(parts))]


def extend_and_compare(model, cache, parts, new):
    """`parts` grown by `new`, one piece per segment, through `cache`; asserts
    the segment ends match a cache-free forward of the grown parts within
    1e-12, and returns the grown parts."""
    parts = [np.concatenate([p, q]) for p, q in zip(parts, new)]
    got = model.last_logits(segments_of(MIXED_VIDEO, new), cache)
    full = segments_of(MIXED_VIDEO, parts)
    assert np.abs(got - model.forward(full).logits[last_positions(full)]).max() <= 1e-12
    assert cache.lengths == [len(p) for p in parts]
    return parts


class TestCacheBuffers:
    """Segments with equal cached, new and query counts attend as one run,
    and the transformer's cache keeps each layer's keys and values in
    buffers that a call writes in place while its tokens fit."""

    def test_step_within_capacity_writes_in_place(self):
        with pytest.raises(ContractError, match="reserve must be >= 0"):
            SegmentCache(reserve=-1)
        model = build_model(CFG)
        g = Rng(21).generator()
        cache = SegmentCache(reserve=3)
        parts = extend_and_compare(
            model, cache, [[]] * 3, [mixed_segment(g, n) for n in (9, 9, 40)]
        )
        for step in range(4):
            before = cache.state
            before_kv = [cached_kv(cache, i) for i in range(3)]
            held = [[(k.copy(), v.copy()) for k, v in before_kv[i]] for i in range(3)]
            parts = extend_and_compare(model, cache, parts, [[5], [6], [7]])
            shared = [
                np.shares_memory(old.keys, new.keys) and np.shares_memory(old.values, new.values)
                for old, new in zip(before, cache.state)
            ]
            # three steps fit the reserve; the fourth gets new buffers
            assert shared == [step < 3] * CFG.layers
            # either way the cached tokens read as before, in the old
            # buffers and at the head of the current ones
            for i in range(3):
                for (k, v), (k_old, v_old), (k_new, v_new) in zip(
                    held[i], before_kv[i], cached_kv(cache, i)
                ):
                    n = k.shape[2]
                    assert np.array_equal(k, k_old) and np.array_equal(v, v_old)
                    assert np.array_equal(k, k_new[:, :, :n]) and np.array_equal(v, v_new[:, :n])

    @pytest.mark.parametrize("reserve", [0, 40])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_runs_split_and_reform(self, reserve, layers):
        # runs of equal segments split and re-form across calls, as cached
        # lengths, new lengths or both differ, with new pieces crossing the
        # query-chunk seam; with reserve 40 some calls write in place and
        # one outgrows the buffers, with reserve 0 every call does
        model = build_model(dataclasses.replace(CFG, layers=layers))
        g = Rng(22 + layers).generator()
        cache = SegmentCache(reserve=reserve)
        parts = [[]] * 5
        capacities = []
        for lengths in (
            [5, 5, 7, 5, 5],  # runs {0, 1}, {2}, {3, 4}
            [3, 3, 1, 3, 3],  # new lengths differ where cached ones do
            [_C + 1] * 5,  # one run of five, 8 cached tokens each
            [1, 40, 40, 1, 1],  # {0}, {1, 2}, {3, 4}
            [1] * 5,  # equal new lengths, cached ones 42 and 81
        ):
            parts = extend_and_compare(model, cache, parts, [mixed_segment(g, n) for n in lengths])
            capacities.append(cache.state[0].keys.shape[3])
        need = [7, 8, 8 + _C + 1, 49 + _C, 50 + _C]
        if reserve:
            assert capacities == [47, 47, 47, need[3] + reserve, need[3] + reserve]
        else:
            assert capacities == need

    @pytest.mark.filterwarnings(*OVERFLOW_WARNINGS)
    def test_failed_pass_leaves_cache_readable(self, monkeypatch):
        # a call that raises at layer 1, after layer 0 wrote its new keys in
        # place, leaves the cache as it was; the same call then succeeds
        # once the model's layer-1 weights are unscaled again
        model = build_model(CFG)
        hot = scaled_scores(1000.0, layers=[1])
        g = Rng(23).generator()
        cache = SegmentCache(reserve=4)
        parts = extend_and_compare(model, cache, [[]] * 2, [mixed_segment(g, n) for n in (6, 30)])
        lengths, state = list(cache.lengths), cache.state
        held = [[a.copy() for a in layer] for i in range(2) for layer in cached_kv(cache, i)]
        new = [mixed_segment(g, 2), mixed_segment(g, 2)]
        with monkeypatch.context() as patched, pytest.raises(
            ContractError, match="layer 1: softmax denominator"
        ):
            # the cache serves one backend, so the model itself runs hot
            for name in ("attn_query", "attn_key"):
                patched.setitem(model.weights, f"layer1.{name}", hot.weights[f"layer1.{name}"])
            model.last_logits(segments_of(MIXED_VIDEO, new), cache)
        assert cache.lengths == lengths and cache.state is state
        now = [layer for i in range(2) for layer in cached_kv(cache, i)]
        assert all(np.array_equal(a, b) for h, n in zip(held, now) for a, b in zip(h, n))
        extend_and_compare(model, cache, parts, new)

    def test_runs_are_maximal_stretches(self):
        # a run is every consecutive segment of equal cached, new and query
        # counts, however large its score tile
        assert _segment_runs([0] * 70, [64] * 70, [64] * 70) == [(0, 70)]
        assert _segment_runs([0] * 3, [5000] * 3, [5000] * 3) == [(0, 3)]
        assert _segment_runs([0] * 3, [5000] * 3, [1] * 3) == [(0, 3)]
        assert _segment_runs([4, 4, 5], [1, 1, 1], [1, 1, 1]) == [(0, 2), (2, 3)]
        assert _segment_runs([0, 0, 0], [3, 3, 3], [3, 1, 3]) == [(0, 1), (1, 2), (2, 3)]
        # the 70-segment run's rows still match each segment alone
        model = build_model(dataclasses.replace(CFG, max_positions=70 * 64))
        g = Rng(24).generator()
        parts = [mixed_segment(g, 64) for _ in range(70)]
        got = model.last_logits(segments_of(MIXED_VIDEO, parts))
        for i in (0, 63, 64, 69):
            solo = model.last_logits(segments_of(MIXED_VIDEO, [parts[i]]))
            assert np.abs(got[i] - solo[0]).max() <= 1e-12


class TestPassPieces:
    """A pass runs its position-wise stages over row tiles and splits its
    attention chunks across W workers: W's rule, the thread pool's
    lifecycle, and the pass's peak memory."""

    def test_row_tiles(self):
        assert _row_tiles(1) == [(0, 1)]
        assert _row_tiles(_ROW_TILE + 1) == [(0, _ROW_TILE + 1)]
        assert _row_tiles(_ROW_TILE + 2) == [(0, _ROW_TILE // 2 + 1), (_ROW_TILE // 2 + 1, _ROW_TILE + 2)]
        for total in range(1, 4 * _ROW_TILE + 3):
            tiles = _row_tiles(total)
            sizes = [t1 - t0 for t0, t1 in tiles]
            assert [t0 for t0, _ in tiles[1:]] == [t1 for _, t1 in tiles[:-1]]
            assert tiles[0][0] == 0 and tiles[-1][1] == total
            assert len(tiles) == max(1, math.ceil((total - 1) / _ROW_TILE))
            assert max(sizes) - min(sizes) <= 1 and max(sizes) <= _ROW_TILE + 1
            assert min(sizes) >= 2 or total == 1

    @pytest.mark.parametrize(
        "environ, cpus, workers",
        [
            ({}, 2, 1),  # unpinned BLAS already uses every CPU
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
            ({"OMP_NUM_THREADS": "1"}, 2, 2),
            ({"OPENBLAS_NUM_THREADS": "auto"}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 5, 5),
            # OpenBLAS's order: its own variable, GOTO's, then OpenMP's,
            # each only when it holds a positive integer
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
            ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4, 4),
            ({"GOTO_NUM_THREADS": "-1", "OMP_NUM_THREADS": "2"}, 4, 2),
        ],
    )
    def test_worker_rule(self, environ, cpus, workers):
        assert worker_count(environ, cpus) == workers

    @pytest.fixture
    def own_pool(self, monkeypatch):
        # a pool started for the test alone and shut down after it
        monkeypatch.setattr(toymodel, "_POOL", None)
        yield
        if toymodel._POOL is not None:
            toymodel._POOL[1].shutdown()

    @pytest.mark.parametrize("count", [1, 3, 17])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_share_runs_each_item_once(self, own_pool, workers, count):
        # fewer items than workers and more: each item runs once, on at
        # most min(W, items) workers, each of which keeps one thread and its
        # own buffer, worker 0's being the calling thread
        ran, lock = [], threading.Lock()

        def work(item, buf):
            with lock:
                ran.append((item, buf, threading.get_ident()))

        toymodel._share(workers, list(range(count)), work, list(range(workers)))
        assert sorted(item for item, *_ in ran) == list(range(count))
        threads = {buf: {thread for _, b, thread in ran if b == buf} for _, buf, _ in ran}
        assert len(threads) <= min(workers, count)
        assert all(len(t) == 1 for t in threads.values())
        assert threads.get(0, {threading.get_ident()}) == {threading.get_ident()}
        assert len(set().union(*threads.values())) == len(threads)

    def test_share_on_one_worker_keeps_list_order(self):
        ran = []
        toymodel._share(1, [3, 1, 2, 0], lambda item, buf: ran.append((item, buf)), ["own"])
        assert ran == [(3, "own"), (1, "own"), (2, "own"), (0, "own")]

    def test_share_leaves_a_held_worker_no_more_items(self, own_pool):
        # the worker that takes the first item is held there until the
        # other has run every other item, which it can only do if items go
        # to whichever worker is free, not k mod W
        items, ran, lock, release = list(range(8)), [], threading.Lock(), threading.Event()

        def work(item, buf):
            with lock:
                first = not ran
                ran.append((item, buf))
                done = len(ran) == len(items)
            if first:
                assert release.wait(10)
            elif done:
                release.set()

        toymodel._share(2, items, work, ["a", "b"])
        assert sorted(item for item, _ in ran) == items
        held = ran[0][1]
        assert [buf for _, buf in ran].count(held) == 1

    @pytest.mark.parametrize("raiser", ["a", "b"], ids=["calling_thread", "first_helper"])
    def test_share_raises_once_every_worker_stopped(self, own_pool, raiser):
        # each of three workers takes one item; then worker `raiser` (the
        # calling thread's buffer "a", or the first helper's "b") raises
        # while worker "c" is held at its item: _share raises that error
        # only after "c" has finished, and "c" takes no more items
        items, ran, lock = list(range(9)), [], threading.Lock()
        barrier, release, finished = threading.Barrier(3), threading.Event(), threading.Event()

        def work(item, buf):
            with lock:
                first = buf not in [b for _, b in ran]
                ran.append((item, buf))
            if first:
                barrier.wait(10)
            if buf == raiser:
                threading.Timer(0.2, release.set).start()
                raise ValueError(item)
            if buf == "c":
                assert release.wait(10)
                finished.set()

        with pytest.raises(ValueError):
            toymodel._share(3, items, work, ["a", "b", "c"])
        assert finished.is_set()
        assert [buf for _, buf in ran].count("c") == 1

    def test_import_and_probe_run_start_no_thread(self, tmp_path, run_cli):
        # with BLAS pinned, so that W would be 2 on two CPUs
        code = (
            "import sys, threading\n"
            "import t3s\n"
            "from t3s.harness import default_experiment_config, run_experiment\n"
            "imported = threading.active_count(), 'concurrent.futures' in sys.modules\n"
            "run_experiment(default_experiment_config(repeats=20))\n"
            "print(*imported, threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        )
        res = run_cli(cwd=tmp_path, entry=("-c", code), env={"OPENBLAS_NUM_THREADS": "1"})
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "False", "1", "False"]

    def test_split_passes_keep_one_pool(self, monkeypatch):
        # 200 passes of two row tiles at W = 2 split, and all run on the
        # one pool thread the first of them started
        monkeypatch.setattr(toymodel, "_WORKERS", 2)
        model = build_model(CFG)
        packed, _, _ = make_packed(total_frames=40, frames_per_trial=32, tokens_per_frame=6)
        assert len(_row_tiles(packed.total_length)) == 2
        assert all(s.length > _QUERY_CHUNK for s in packed.segments)
        names = set()
        for name in ("_project", "_attend_chunk"):
            def recorded(*args, stage=getattr(toymodel, name)):
                names.add(threading.current_thread().name)
                return stage(*args)

            monkeypatch.setattr(toymodel, name, recorded)
        before = threading.active_count()
        for _ in range(200):
            model.forward(packed)
        assert threading.active_count() - before <= 1
        assert [t.name.startswith("t3s-attention") for t in threading.enumerate()].count(True) == 1
        assert any(name.startswith("t3s-attention") for name in names)

    def test_cached_continuation_of_one_tile_stays_serial(self, monkeypatch):
        # at W = 2, 257 new rows after 892 cached ones, one row tile whose
        # first layer allows over 2^20 score entries, share every phase to
        # one worker and run on the calling thread, and their logits stay
        # the W = 1 logits bit for bit
        video = VideoTokenStream(64, 16, DESK.model_dim, key=0xD16E57)
        rows = -1 - np.arange(64 * 16)
        prompt = segments_of(video, [rows[:892]])
        more = segments_of(video, [np.concatenate([rows[892:], np.arange(125) % DESK.vocab])])
        assert len(_row_tiles(more.total_length)) == 1 and more.total_length == 257
        assert DESK.heads * (257 * 892 + 257 * 258 // 2) >= 2**20
        model = build_model(DESK)
        monkeypatch.setattr(toymodel, "_WORKERS", 1)
        cache = SegmentCache()
        model.last_logits(prompt, cache)
        serial = model.last_logits(more, cache)
        monkeypatch.setattr(toymodel, "_WORKERS", 2)
        cache = SegmentCache()
        model.last_logits(prompt, cache)
        shared, threads, share, attend = [], set(), toymodel._share, toymodel._attend_chunk

        def sharing(workers, *args):
            shared.append(workers)
            return share(workers, *args)

        def attending(*args):
            threads.add(threading.get_ident())
            return attend(*args)

        monkeypatch.setattr(toymodel, "_share", sharing)
        monkeypatch.setattr(toymodel, "_attend_chunk", attending)
        split = model.last_logits(more, cache)
        assert np.array_equal(split, serial)
        assert shared and set(shared) == {1}
        assert threads == {threading.get_ident()}

    def test_serial_passes_start_no_thread(self, tmp_path, run_cli):
        # W = 2 forced in a child: a decode whose first pass holds 232 rows,
        # one row tile, and whose cached steps hold 8, and passes of 257 rows
        # or fewer, each one row tile, run their row tiles and attention on
        # the calling thread
        code = (
            "import sys, threading\n"
            f"sys.path.insert(0, {str(TESTS)!r})\n"
            "from test_forward_digests import DESK, decode_shape, single_segment\n"
            "from t3s import toymodel\n"
            "from t3s.aggregator import ConfidenceWeighted, decode\n"
            "toymodel._WORKERS = 2\n"
            "model = toymodel.build_model(DESK)\n"
            "plans, task = decode_shape(frames_per_trial=16)\n"
            "decode(model, plans, task.video, task.question, 4, ConfidenceWeighted())\n"
            "for rows in (3, 64, 255, 256, 257):\n"
            "    model.forward(single_segment(rows))\n"
            "    model.last_logits(single_segment(rows))\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        )
        res = run_cli(cwd=tmp_path, entry=("-c", code))
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "False"]

    def test_one_worker_starts_no_thread(self, tmp_path, run_cli):
        # with BLAS unpinned, W is 1, and passes that split at W = 2 (the
        # decode_short_trials shape's 440-row first pass and its 516-row
        # dense baseline, the default seeded_transformer run's 516- and
        # 311-row segments) run on the calling thread
        code = (
            "import sys, threading\n"
            f"sys.path.insert(0, {str(TESTS)!r})\n"
            "from test_forward_digests import DESK, decode_shape, dense_plan\n"
            "from t3s.aggregator import ConfidenceWeighted, MeanLogits, decode\n"
            "from t3s.harness import default_experiment_config, run_experiment\n"
            "from t3s.toymodel import attention_workers, build_model\n"
            "model, (plans, task) = build_model(DESK), decode_shape()\n"
            "decode(model, plans, task.video, task.question, 4, ConfidenceWeighted())\n"
            "decode(model, [dense_plan(plans, task)], task.video, task.question, 4, MeanLogits())\n"
            "run_experiment(default_experiment_config(backend='seeded_transformer', repeats=64))\n"
            "print(attention_workers(), threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        )
        unpinned = dict.fromkeys(toymodel.BLAS_THREAD_VARS)
        res = run_cli(cwd=tmp_path, entry=("-c", code), env=unpinned)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "1", "False"]

    @pytest.mark.parametrize("dense", [False, True], ids=["trials", "dense"])
    def test_decode_first_pass_splits_its_rows(self, monkeypatch, dense):
        # at W = 2, the first pass of a decode of the decode_short_trials
        # shape (440 rows, two tiles) and of its dense baseline (516 rows,
        # three tiles) embed their rows on both threads, and their logits
        # stay the W = 1 logits bit for bit
        plans, task = decode_shape()
        plans = [dense_plan(plans, task)] if dense else plans
        packed = pack(plans, task.video, task.question)
        assert packed.total_length == (516 if dense else 440)
        tiles = _row_tiles(packed.total_length)
        model = build_model(DESK)
        monkeypatch.setattr(toymodel, "_WORKERS", 1)
        serial = model.last_logits(packed, SegmentCache(reserve=3))
        ran, first, local = [], threading.Barrier(2), threading.local()
        stage = toymodel._embed_rows

        def recorded(*args):
            # each thread waits at its first tile until the other has taken
            # one, so both embed tiles whichever starts first
            ran.append((args[-3:-1], threading.get_ident()))
            if not hasattr(local, "waited"):
                local.waited = True
                first.wait(10)
            return stage(*args)

        monkeypatch.setattr(toymodel, "_embed_rows", recorded)
        monkeypatch.setattr(toymodel, "_WORKERS", 2)
        split = model.last_logits(packed, SegmentCache(reserve=3))
        assert np.array_equal(split, serial)
        assert sorted(tile for tile, _ in ran) == tiles
        assert len({thread for _, thread in ran}) == 2

    def test_split_pass_runs_row_tiles_on_every_worker(self, monkeypatch):
        # each row phase of a pass that splits runs each tile's stages once,
        # on the calling thread and the pool thread, and the logits stay the
        # W = 1 logits bit for bit
        video = VideoTokenStream(64, 16, CFG.model_dim, key=0xD16E57)
        packed = pack([TrialPlan(np.arange(64), np.arange(997), 1.0)], video, [1, 2, 3])
        tiles = [t0 for t0, _ in _row_tiles(packed.total_length)]
        assert len(tiles) == 4
        model = build_model(CFG)
        monkeypatch.setattr(toymodel, "_WORKERS", 1)
        serial = model.forward(packed).logits
        ran, first, local = [], threading.Barrier(2), threading.local()
        for name in ("_project", "_mlp_block", "_unembed"):
            def recorded(*args, name=name, stage=getattr(toymodel, name)):
                # each thread waits at its first tile until the other has
                # taken one, so both run tiles whichever starts first
                ran.append((name, tiles.index(args[-3]), threading.get_ident()))
                if not hasattr(local, "waited"):
                    local.waited = True
                    first.wait(10)
                return stage(*args)

            monkeypatch.setattr(toymodel, name, recorded)
        monkeypatch.setattr(toymodel, "_WORKERS", 2)
        split = model.forward(packed).logits
        assert np.array_equal(split, serial)
        once = {"_project": CFG.layers, "_mlp_block": CFG.layers, "_unembed": 1}
        assert collections.Counter((name, k) for name, k, _ in ran) == {
            (name, k): count for name, count in once.items() for k in range(len(tiles))
        }
        assert len({thread for *_, thread in ran}) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pass_peak_memory(self, monkeypatch, workers):
        # a DESK pass over 2052 rows and the packed (0.5, 0.3) one over 1646:
        # buffers allocated once per pass, row tiles, and each worker's row
        # buffers and layer norms kept in its attention block keep each
        # traced peak under 12 MiB (it was 17.2 MiB with fresh per-layer
        # arrays and whole-pass FFN intermediates)
        monkeypatch.setattr(toymodel, "_WORKERS", workers)
        desk = ModelConfig(layers=4, model_dim=64, heads=4, vocab=64, max_positions=4096)
        model = build_model(desk)
        video = VideoTokenStream(128, 16, desk.model_dim, key=0xD16E57)
        single = pack([TrialPlan(np.arange(128), np.arange(2048), 1.0)], video, [1, 2, 3, 4])
        multi, _ = ttft_passes()
        for packed in (single, multi):
            model.forward(packed)  # first-use allocations
            tracemalloc.start()
            try:
                model.forward(packed)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 12 * 2**20, (packed.total_length, peak)


class TestNeedleProbe:
    def test_no_needles_zero_noise_all_zero(self):
        packed, _, _ = make_packed(trials=2)
        probe = _probe_for(CFG, noise=0.0)
        logits = probe.forward(packed).logits[last_positions(packed)]
        assert np.array_equal(logits, np.zeros_like(logits))
        assert int(np.argmax(logits[0])) == 0  # tie-break to token 0

    def test_answer_logit_counts_surviving_needles(self):
        cfg = CFG
        video = VideoTokenStream(4, 3, cfg.model_dim, Rng(2).key, frozenset({1}))
        # keep exactly 3 needle tokens: frames (0,1), all 6 tokens kept
        plan = TrialPlan(np.array([0, 1]), np.arange(6, dtype=np.int64), 1.0)
        packed = pack([plan], video, [5])
        probe = _probe_for(cfg, noise=0.0)
        logits = probe.forward(packed).logits[last_positions(packed)]
        assert logits[0, needle_answer(video.key, cfg.vocab)] == 3.0
        assert np.count_nonzero(logits) == 1

    def test_noise_bounded_and_content_seeded(self):
        packed, _, _ = make_packed(trials=2, needles=frozenset({2}))
        probe = _probe_for(CFG, noise=0.07)
        logits = probe.forward(packed).logits
        others = np.delete(logits, needle_answer(packed.video.key, CFG.vocab), axis=1)
        assert np.abs(others).max() <= 0.07
        again = probe.forward(packed).logits
        assert np.array_equal(logits, again)

    def test_noise_depends_on_token_order(self):
        # swap two visual tokens of one segment: the noise before the first
        # is unchanged and every row from the first on changes, including
        # the rows from the second on, whose prefixes hold the same tokens
        # in another order
        codes = -1 - np.arange(12)
        first, second = 3, 8
        swapped = codes.copy()
        swapped[[first, second]] = codes[[second, first]]
        probe = _probe_for(CFG)
        logits = [probe.forward(segments_of(MIXED_VIDEO, [c])).logits for c in (codes, swapped)]
        answer = needle_answer(MIXED_VIDEO.key, CFG.vocab)
        noise = [np.delete(x, answer, axis=1) for x in logits]
        assert np.array_equal(noise[0][:first], noise[1][:first])
        assert (noise[0][first:] != noise[1][first:]).any(axis=1).all()

    def test_pinned_logits(self):
        # freezes the probe's logits on test_pinned_logits's fixed input, so
        # a change to its signature or noise stream shows. The probe takes
        # no transcendental function, so its logits are hashed unrounded.
        # `probe_oracle_logits` gives the same digest
        logits = _probe_for(CFG).forward(pinned_packed()).logits
        got = hashlib.sha256(logits.astype("<f8").tobytes()).hexdigest()[:16]
        assert got == "9e9d91c62207029c"

    def test_probe_path_draws_no_rows(self, monkeypatch):
        from t3s.aggregator import MeanLogits, decode
        from t3s.harness import default_experiment_config, run_experiment
        from t3s.sampler import TokenStrategy

        def no_draw(self, index):
            raise AssertionError("the probe path drew video rows")

        monkeypatch.setattr(VideoTokenStream, "rows", no_draw)
        packed, plans, video = make_packed(trials=2, needles=frozenset({2}))
        probe = _probe_for(CFG)
        assert probe.forward(packed).logits.shape == (packed.total_length, CFG.vocab)
        assert len(decode(probe, plans, video, [1, 2], 3, MeanLogits())) == 3
        base = default_experiment_config(repeats=3)
        cfg = dataclasses.replace(
            base,
            sampler=dataclasses.replace(base.sampler, token_strategy=TokenStrategy.RAND_TOK),
        )
        assert cfg.backend == "needle_probe"
        assert run_experiment(cfg).accuracy >= 0.0

    def test_noise_scale_must_stay_below_one(self):
        with pytest.raises(ConfigError):
            NeedleProbe(16, noise_scale=1.0)

    @pytest.mark.parametrize("vocab", [1, 0, -3])
    def test_vocab_below_two_rejected(self, vocab):
        # the answer rule takes ids 1..vocab-1; vocab 1 used to fail the
        # first pass with a ZeroDivisionError, and 0 or -3 with a misleading
        # "token id outside vocabulary"
        with pytest.raises(ConfigError, match="vocab must be >= 2"):
            NeedleProbe(vocab)

    def test_two_ids_suffice(self):
        video = VideoTokenStream(2, 1, CFG.model_dim, 5, frozenset({0}))
        packed = pack([TrialPlan(np.array([0, 1]), np.array([0, 1]), 1.0)], video, [0])
        logits = NeedleProbe(2, noise_scale=0.0).last_logits(packed)
        assert logits.tolist() == [[0.0, 1.0]]

    def test_accuracy_matches_closed_form_coverage(self):
        # 10k random plan draws on one fixed task; MeanLogits aggregation.
        # P(hit) ~ 1 - (1 - N/F)^m up to the negligible chance that token
        # subsampling drops every needle token of a covered frame. The first
        # tokens are those `decode(probe, plans, video, [1, 2], 1, ...)`
        # gives, taken from `block_logits` rows block by block.
        from t3s.aggregator import MeanLogits, fuse_token
        from t3s.sampler import closed_form_coverage

        cfg = ModelConfig(
            layers=1, model_dim=8, heads=1, vocab=16, max_positions=4096, init_seed=0
        )
        total_frames, per_trial, trials, tokens_per_frame = 100, 25, 2, 8
        video = VideoTokenStream(
            total_frames, tokens_per_frame, cfg.model_dim, Rng(1).key, frozenset({37})
        )
        probe = NeedleProbe(cfg.vocab, noise_scale=0.05)
        answer = needle_answer(video.key, cfg.vocab)
        sampler = SamplerConfig(
            total_frames=total_frames,
            frames_per_trial=per_trial,
            tokens_per_frame=tokens_per_frame,
            trials=trials,
            ratios=(0.5, 0.5),
        )
        draws, block = 10_000, 500
        root = Rng(99)
        hits = 0
        for b in range(0, draws, block):
            plans = [build_trial_plans(sampler, root.child(d)) for d in range(b, b + block)]
            rows = [
                kept_rows(
                    np.array([p[i].frame_indices for p in plans]),
                    np.array([p[i].token_keep for p in plans]),
                    video,
                )
                for i in range(trials)
            ]
            logits = probe.block_logits([video] * block, np.array([[1, 2]] * block), rows)
            hits += sum(fuse_token(o, MeanLogits()) == answer for o in logits)
        p = closed_form_coverage(total_frames, per_trial, trials)
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(hits / draws - p) < 3 * sigma

