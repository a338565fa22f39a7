"""Bit-exact digests of the DESK transformer's outputs.

`test_toymodel.py::test_pinned_logits` rounds to 1e-9 before hashing, so it
cannot see a change in the last bits, such as a one-row product that BLAS
sends to gemv and rounds unlike the rows of a full one. These digests hash
the unrounded float64 bytes. They run with one attention worker, with two
and with three, where the work lists do not share out evenly; W > 1 is
forced through the module's private worker count, and each test checks that
its passes of two or more row tiles (258 rows or more) hand every phase to
the W workers and all other passes run on one. One more test gets W from a
child process's environment, with BLAS pinned.
"""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from t3s import toymodel
from t3s.aggregator import ConfidenceWeighted, decode, fuse_token
from t3s.harness import gen_task
from t3s.numkernel import Rng
from t3s.packer import pack, token_per_segment
from t3s.sampler import SamplerConfig, TrialPlan, build_trial_plans
from t3s.toymodel import ModelConfig, SegmentCache, VideoTokenStream, build_model

DESK = ModelConfig(layers=4, model_dim=64, heads=4, vocab=64, max_positions=16384, init_seed=0)
QUESTION = (5, 17, 42)

# rows of a single-segment pass: below, on and past one 256-row tile, and
# past two and three tiles, where a tile rule that leaves a last tile of one
# row would show
SINGLE_ROWS = [255, 256, 257, 513, 769]

FORWARD_DIGESTS = {
    255: "e45211964e0b014cf6ef353cbe67518aefb4c7f0c86e5f7490806468c04ac9e3",
    256: "350885278e36dbd1c2a4f2c0aedc5a520269467fca791453e55445117c86566c",
    257: "d55f24a5e175ff09fdbbe340b7f9897d5c5b23f322bd35e33b10d8425a133684",
    513: "05e65a94f2cb783322a5e7d9e41c8dded431f5a0035e2d14ce846c4187afc9ea",
    769: "8c5cdb654c8a13fc14522c4fb064ecb6652007f8d28db0fd916b11303569b8e3",
}
PACKED_L2048 = "1f245302cac355864b96fd41ac4b46b42d52c907f839ffee92f0dcca8ff2263d"
BASE_L2048 = "d19a137aa8570c4ec08d488ea0d5d3ebdae1f6731bceab2ccdcf246b469c810e"
LAST_UNCACHED = "e0392c596cf1952c5a4b4c41424e44797ef13b3056fcb2301866d5ce4442515b"
LAST_CACHED = "85a4cc521bd00b9e79beefc886642f28ab80150c18bdaef4eb46618cfa33cd03"
DECODE_TOKENS = [27, 30, 30, 30]
RECEIVED_513 = "db2d618ea4d6e0a386d20a0a3fde8e38c55837e759f3d8a4bd8358527382c6d9"


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


@pytest.fixture(params=[1, 2, 3], ids=["W1", "W2", "W3"])
def workers(request, monkeypatch):
    # W forced; each pass records its rows (0 where it sums the attention
    # received) and, for every phase, the W it was given and the workers
    # min(W, items) that ran it. At the test's end a pass of 258 rows or
    # more gave every phase W and ran one on two or more workers; any other
    # pass gave every phase one worker
    monkeypatch.setattr(toymodel, "_WORKERS", request.param)
    passes, share, run = [], toymodel._share, toymodel.SeededTransformer._run

    def sharing(workers, items, work, bufs):
        passes[-1][1].append((workers, min(workers, len(items))))
        return share(workers, items, work, bufs)

    def running(self, packed, cache=None, last_only=False, received=None):
        passes.append((packed.total_length if received is None else 0, []))
        return run(self, packed, cache, last_only, received)

    monkeypatch.setattr(toymodel, "_share", sharing)
    monkeypatch.setattr(toymodel.SeededTransformer, "_run", running)
    yield request.param
    assert passes
    for rows, phases in passes:
        w = request.param if rows >= 258 else 1
        assert {given for given, _ in phases} == {w}, rows
        assert (max(used for _, used in phases) > 1) == (w > 1), rows


@pytest.fixture(scope="module")
def model():
    return build_model(DESK)


def single_segment(rows):
    visual = rows - len(QUESTION)
    video = VideoTokenStream(64, 16, DESK.model_dim, key=0xD16E57)
    plan = TrialPlan(np.arange(64), np.arange(visual), 1.0)
    return pack([plan], video, QUESTION)


def ttft_passes(seed=851):
    """The (packed (0.5, 0.3), single-segment baseline) passes at L=2048."""
    task = gen_task(128, 16, 1, seed, DESK)
    sampler = SamplerConfig(
        total_frames=128, frames_per_trial=128, tokens_per_frame=16, trials=2, ratios=(0.5, 0.3)
    )
    multi = pack(build_trial_plans(sampler, Rng(seed)), task.video, task.question)
    full = TrialPlan(np.arange(128), np.arange(128 * 16), 1.0)
    return multi, pack([full], task.video, task.question)


def decode_shape(seed=851, frames_per_trial=32):
    """8 trials at alpha=0.1 over `frames_per_trial` of 256 frames, 16 tokens
    a frame; the default is perfbench's decode_short_trials shape."""
    task = gen_task(256, 16, 1, seed, DESK)
    sampler = SamplerConfig(
        total_frames=256, frames_per_trial=frames_per_trial, tokens_per_frame=16, trials=8,
        ratios=(0.1,) * 8,
    )
    return build_trial_plans(sampler, Rng(seed)), task


def dense_plan(plans, task):
    """The dense baseline of `decode_shape`: one trial keeping every token of
    the first trial's frames."""
    tokens = len(plans[0].frame_indices) * task.video.tokens_per_frame
    return TrialPlan(plans[0].frame_indices, np.arange(tokens), 1.0)


@pytest.mark.parametrize("rows", SINGLE_ROWS)
def test_single_segment_forward(model, workers, rows):
    packed = single_segment(rows)
    assert packed.total_length == rows
    assert digest(model.forward(packed).logits) == FORWARD_DIGESTS[rows]


def test_attention_received(model, workers):
    assert digest(model.attention_received(single_segment(513))) == RECEIVED_513


def test_ttft_forwards(model, workers):
    multi, base = ttft_passes()
    assert [s.length for s in multi.segments] == [1028, 618]
    assert base.total_length == 2052
    assert digest(model.forward(multi).logits) == PACKED_L2048
    assert digest(model.forward(base).logits) == BASE_L2048
    last = np.concatenate([model.last_logits(multi), model.last_logits(base)])
    assert digest(last) == LAST_UNCACHED


def test_decode_steps(model, workers):
    plans, task = decode_shape()
    steps, strategy = 4, ConfidenceWeighted()
    packed = pack(plans, task.video, task.question)
    cache = SegmentCache(reserve=steps - 1)
    rows, tokens = [], []
    for _ in range(steps):
        logits = model.last_logits(packed, cache)
        rows.append(logits)
        tokens.append(fuse_token(logits, strategy))
        packed = token_per_segment(tokens[-1], packed)
    assert digest(np.concatenate(rows)) == LAST_CACHED
    assert tokens == DECODE_TOKENS
    assert decode(model, plans, task.video, task.question, steps, strategy) == tokens


def test_ttft_forwards_with_blas_pinned(tmp_path, run_cli):
    # W from the environment, as `attention_workers` reads it, not forced:
    # the child starts its own pool wherever it has two or more CPUs
    code = (
        "import sys, threading\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_forward_digests import DESK, digest, ttft_passes\n"
        "from t3s.toymodel import attention_workers, build_model\n"
        "model, (multi, base) = build_model(DESK), ttft_passes()\n"
        "print(digest(model.forward(multi).logits), digest(model.forward(base).logits))\n"
        "pool = any(t.name.startswith('t3s-attention') for t in threading.enumerate())\n"
        "print(attention_workers(), pool)\n"
    )
    res = run_cli(cwd=tmp_path, entry=("-c", code), env={"OPENBLAS_NUM_THREADS": "1"})
    assert res.returncode == 0, res.stderr
    packed, base, workers, pool = res.stdout.split()
    assert (packed, base) == (PACKED_L2048, BASE_L2048)
    cpus = len(os.sched_getaffinity(0))
    assert workers == str(toymodel.worker_count({"OPENBLAS_NUM_THREADS": "1"}, cpus))
    assert pool == str(int(workers) > 1)
