"""Desk-scale decoding backends: a seeded causal transformer and a needle probe.

Both backends share one contract. `forward(packed)` covers every position of
a packed sequence and keeps no state: it returns per-position logits plus the
exact count of attention score entries the block-diagonal causal rule permits
(each position attends only backwards inside its own segment), which
`pair_count(packed)` gives from the segment layout alone. Segment positions
restart at zero, so a segment's logits are the same packed or alone.

Two methods read segment-end logits. `last_logits(packed, cache=None)`
reads every segment's last position of one packed sequence and is the only
method that holds a `SegmentCache`, which only the backend that filled it
continues: segment i of `packed` extends cached segment i, whose tokens it
attends but does not recompute. It computes only the rows it returns: the
probe draws noise for them alone and matches `forward` bit for bit; the
transformer's last layer runs its queries, FFN and unembedding on them alone
and matches `forward` within 1e-12, since BLAS rounds a one-row product
unlike the rows of a full one. `block_logits(videos, questions, rows)` gives
R tasks' (R, m, vocab) logits from the row ids `packer.kept_rows` gives their
stacked plans, bit for bit `last_logits` of each task's pack. Each backend is
a pure function of what it reads (the probe's answer id is `needle_answer`
of the video's key), so one serves a whole run.

The transformer attends a pass's segments run by run: a run is a maximal
stretch of consecutive segments with equal cached, new and query counts, as
equal-alpha trials and every decode step make them, and it goes through one
batched score, exp and PV pass over a (segments, heads) stack of views. A
lone segment is a run of one. Its cache holds each layer's keys and values in
buffers that a continuing call writes in place while its tokens fit.

A pass works in cache-sized pieces. Its input rows, queries, keys, values,
context rows and score tiles live in buffers allocated once per pass, which
every layer writes in place. The position-wise stages run over row tiles,
the fewest that hold at most `_ROW_TILE` + 1 rows each, equal to within a
row: the embedding, layer norms, projections, FFN, residuals and the
unembedding. The first row phase embeds each tile and runs it through the
first layer's projections; between two attentions one row phase runs each
tile through the previous layer's output projection and FFN and then the
next layer's projections. A pass runs on W = max(1, cpus //
blas_threads) workers where it has two or more row tiles, so an 8-trial
decode's first pass splits; else on one, as a pass of up to 257 rows and
every cached decode step do, and so does a pass that sums the attention
received. Every phase of a pass runs on its W. With BLAS unpinned W is 1
and no thread starts. W workers, the calling thread and a lazily started
pool of W - 1 threads, take a phase's items, a layer's 32-query attention
chunks or a row phase's tiles, one at a time from one list, so a slower
worker takes fewer. The calling thread alone runs the pass's input checks
and per-segment bookkeeping, and each layer's score bounds and cache
writes. Every row and chunk gets the same BLAS calls as a whole-pass
product would give it, so the outputs are bit for bit the same at every W.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .numkernel import Rng, counter_normals, layer_norm, mix64, per_row
from .packer import PackedSequence, check_block, pack_rows, segment_lengths

_NEG_INF = float("-inf")
_GELU_C = 0.7978845608028654  # sqrt(2/pi)

# Queries are processed in fixed-size chunks with keys truncated at the
# chunk's causal horizon. Each chunk's float64 score tile is read and written
# by three passes (mask, exp, PV), so it is sized to a 2 MiB per-core L2: at
# 4 heads one segment's 32-query tile is 1 MB at horizon 1028 and 2 MB at
# 2052, where a 128-query one spilled at 4-8 MB. A run of equal segments
# shares one (segments, heads, chunk, horizon) tile, however many segments
# it holds (2.1 MB at two `seeded_transformer` sweep points). Keys before a
# chunk are all allowed, so only its diagonal block is masked, by this
# triangle (a per-chunk `np.triu` cost ttft_L2048 7-14%).
_QUERY_CHUNK = 32
_FUTURE_KEYS = np.triu(np.ones((_QUERY_CHUNK, _QUERY_CHUNK), dtype=bool), k=1)

# Layer norms, projections and the FFN run over equal row tiles of at most
# _ROW_TILE + 1 rows, in buffers allocated once per pass: at the DESK width a
# tile's (rows, 4 * model_dim) FFN intermediate is about 512 KiB, so a tile's
# stages stay in L2. A tile is also the unit of work that a pass which splits
# hands to a worker. numpy hands a one-row product to BLAS gemv, which rounds
# unlike the rows of a larger product, so no tile holds one row unless the
# pass does; a product split into row blocks of two or more rows is
# otherwise bit for bit the whole one. Tiles save ttft_L2048 8.3% in a
# serial pass with BLAS pinned, 1.9% with it unpinned.
_ROW_TILE = 256

# A pass that splits hands each layer's attention chunks, and the row tiles
# of each row phase, to W workers, the calling thread and W - 1 pool
# threads, which take them one at a time from one list (`_share`). Each
# worker has its own score and PV buffers and its own row buffers, which
# share one block, as it never needs both at once. Each BLAS call already
# runs on blas_threads threads, so W = max(1, cpus // blas_threads) fills
# the CPUs without oversubscribing them: with BLAS unpinned on 2 CPUs, two
# workers made the L=2052 pass 5-10% slower (medians 166-178 to 182-186
# ms). blas_threads is read as OpenBLAS reads it: the first of
# BLAS_THREAD_VARS that holds a positive integer, else the CPU count. A
# pass splits where its row phases have two or more tiles (258 rows or
# more), however many cached keys its attention reads. With BLAS pinned to
# one thread on 2 CPUs, `last_logits` with a cache on the DESK model, timed
# split (W = 2) and serial (W = 1) alternately in one process, medians of
# 40 and of 60 samples, took split/serial 1.10 at 128 rows, 1.03-1.06 at
# 192, 1.00-1.01 at 256 and 264, 0.91-0.94 at 320, 0.84-0.94 at 384,
# 0.75-0.76 at 440 and 0.69-0.70 at 512 in one segment; in eight equal
# segments 0.98-1.02 up to 256 rows, 1.07-1.14 at 264 and 1.02-1.07 at 320,
# where the second tile holds 8 or 64 rows, 0.89-0.92 at 384, 0.78-0.79 at
# 440 and 0.72-0.77 at 512. So a pass of one tile stays serial, and the
# decode's 440-row first pass and its 516-row dense baseline split. With
# equal tiles, 40 samples each, split/serial read 1.12 at 264 rows and 1.22
# at 320 in one segment, 1.13 and 1.15 in eight: that band pays 11-22%.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_WORKERS: Optional[int] = None  # W, read once, on the first pass that could split
_POOL = None  # ((threads, pid), executor), started by the first pass that splits

# Scores reach `exp` already shifted by a per-row bound b >= every score of
# the row (see `_shift_by_bound`), and no score lies below -b, so a row's
# largest term is at least exp(-2b). Up to this bound that stays inside the
# normal double range (exp(-708)); past it a row sum could round to 0 and
# give NaN.
_MAX_SCORE_BOUND = 300.0


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    model_dim: int
    heads: int
    vocab: int
    max_positions: int
    init_seed: int = 0

    def __post_init__(self):
        if min(self.layers, self.model_dim, self.heads, self.max_positions) < 1:
            raise ConfigError(
                "layers, model_dim, heads and max_positions must be >= 1"
            )
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim={self.model_dim} not divisible by heads={self.heads}"
            )
        if self.vocab < 4:
            raise ConfigError(f"vocab must be >= 4, got {self.vocab}")
        if not 0 <= self.init_seed < 2**64:
            raise ConfigError(f"init_seed must lie in [0, 2**64), got {self.init_seed}")


@dataclass(frozen=True)
class VideoTokenStream:
    """A seeded synthetic video whose (frame, patch) rows are drawn on read.

    Row r = f*M + p is a pure function of (`key`, r): ordinary rows are
    standard normals scaled by 1/sqrt(model_dim), so they have roughly unit
    norm, and every patch of a frame in `needle_frames` is exactly
    `needle_direction`. Nothing is drawn until `rows` is read, so a task
    costs in proportion to the rows its trials keep, and a frame's content
    does not depend on which frames carry the needle.
    """

    num_frames: int
    tokens_per_frame: int
    model_dim: int
    key: int
    needle_frames: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.num_frames < 1 or self.tokens_per_frame < 1:
            raise ConfigError("num_frames and tokens_per_frame must be >= 1")
        if self.model_dim < 1:
            raise ConfigError(f"model_dim must be >= 1, got {self.model_dim}")
        if any(not (0 <= f < self.num_frames) for f in self.needle_frames):
            raise ConfigError("needle frame index out of range")

    @cached_property
    def needle_mask(self) -> np.ndarray:
        """(num_frames,) read-only bool array, True at the needle frames."""
        mask = np.zeros(self.num_frames, dtype=bool)
        mask[list(self.needle_frames)] = True
        mask.flags.writeable = False
        return mask

    def rows(self, index: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """(len(index), model_dim) float64 rows r = f*M + p, in index order,
        written into `out` if given, else into a new array.

        Row r's column j < ceil(D/2) is the cosine normal of counter
        r*ceil(D/2) + j of `counter_normals`, and column ceil(D/2) + j its
        sine normal.
        """
        index = np.asarray(index, dtype=np.int64)
        m, dim = self.tokens_per_frame, self.model_dim
        if len(index) and not (0 <= index.min() and index.max() < self.num_frames * m):
            raise ContractError("row index outside the video")
        pairs = (dim + 1) // 2
        scale = 1.0 / math.sqrt(dim)
        if out is None:
            out = np.empty((len(index), dim))
        cos, sin = counter_normals(self.key, index[:, None] * pairs + np.arange(pairs))
        np.multiply(cos, scale, out=out[:, :pairs])
        np.multiply(sin[:, : dim - pairs], scale, out=out[:, pairs:])
        out[self.needle_mask[index // m]] = needle_direction(dim)
        return out


def needle_direction(model_dim: int) -> np.ndarray:
    """The reserved unit direction that marks needle-frame patches."""
    return np.ones(model_dim) / math.sqrt(model_dim)


class ForwardResult(NamedTuple):
    logits: np.ndarray  # (total, vocab)
    pair_count: int  # attention score entries the rule allowed


def _sinusoidal(positions: np.ndarray, dim: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    pos = positions[:, None].astype(np.float64)
    sin_cols = (dim + 1) // 2  # odd dims end on a sine column
    freq = np.exp(-math.log(10000.0) * np.arange(sin_cols) / sin_cols)
    angles = pos * freq[None, :]
    if out is None:
        out = np.empty((len(positions), dim))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles[:, : dim // 2])
    return out


class SegmentCache:
    """The state of one packed sequence that `last_logits` continues.

    A new cache is empty, its `state` and `backend` None; the first call
    given it fixes the backend and segment count, and every later call must
    come from that backend with one packed sequence of that many segments,
    segment i of which continues cached segment i. `lengths[i]` is the
    number of tokens segment i holds so far; `state` is the backend's
    summary of all of them, so a cache serves one backend. The transformer
    keeps a list of `_LayerCache`, one per layer: a key buffer (segments,
    heads, head_dim + 1, capacity) with a ones row at head_dim, a value
    buffer (segments, heads, capacity, head_dim + 1) with a ones column, and
    the (segments, heads) largest squared key norm so far, so a continuing
    pass's score bound covers the cached keys. A call writes its new keys
    and values in place while they fit; else that layer's buffers are
    allocated anew, `reserve` tokens per segment longer than the call needs,
    and the cached tokens copied over. `decode` reserves its later steps'
    tokens, so no step copies a cached key (6% of decode_short_trials).
    The needle probe keeps two
    arrays, each segment's prefix XOR at its last position (uint64) and its
    needle count (int64), and ignores `reserve`.
    """

    def __init__(self, reserve: int = 0):
        if reserve < 0:
            raise ContractError(f"reserve must be >= 0, got {reserve}")
        self.reserve = reserve
        self.lengths: list[int] = []
        self.state = None
        self.backend = None

    def cached(self, packed: PackedSequence) -> list[int]:
        """The cached lengths of the segments `packed` continues, zeros on an
        empty cache."""
        if not self.lengths:
            return [0] * packed.num_segments
        if packed.num_segments != len(self.lengths):
            raise ContractError(
                f"cache holds {len(self.lengths)} segments, "
                f"packed sequence has {packed.num_segments}"
            )
        return self.lengths

    def extend(self, backend, packed: PackedSequence, state) -> None:
        """Record that `backend` continued the cache with `packed`; `state`
        summarises every segment's tokens so far."""
        self.lengths = [c + s.length for c, s in zip(self.cached(packed), packed.segments)]
        self.state = state
        self.backend = backend


def _check_cached(backend, cache: Optional[SegmentCache]) -> None:
    # a cache is continued by the backend that filled it: another backend
    # would read its state as its own
    if cache is not None and cache.backend not in (None, backend):
        raise ContractError("the cache was filled by another backend")


def _segment_pair_count(packed: PackedSequence) -> int:
    # n queries of a segment: n(n+1)/2 allowed entries
    return sum(s.length * (s.length + 1) // 2 for s in packed.segments)


def _segment_runs(cached, lengths, queries):
    # [s0, s1) maximal stretches of consecutive segments with equal cached,
    # new and query counts
    sizes = [len(list(group)) for _, group in itertools.groupby(zip(cached, lengths, queries))]
    ends = list(itertools.accumulate(sizes, initial=0))
    return list(zip(ends, ends[1:]))


def _workspace(*shapes):
    # C-contiguous float64 arrays of `shapes`: views of one allocation, each
    # starting on a 64-byte line. The allocator maps one large block once and
    # then reuses it from pass to pass, where separate buffers were mapped and
    # their pages faulted in again on every pass. Aligned views save
    # ttft_L2048 3.0-6.5%.
    flat = np.empty(sum(map(_padded, shapes)) + 7)
    return _views(flat[(-flat.ctypes.data % 64) // 8 :], shapes)


def _padded(shape):
    # entries of `shape`, rounded up to whole 64-byte lines
    return -(-math.prod(shape) // 8) * 8


def _views(flat, shapes):
    # C-contiguous arrays of `shapes` laid one after another along `flat`,
    # each `_padded` entries after the one before
    arrays, at = [], 0
    for shape in shapes:
        arrays.append(flat[at : at + math.prod(shape)].reshape(shape))
        at += _padded(shape)
    return arrays


def _row_tiles(total):
    # [t0, t1) tiles over `total` rows, ceil((total - 1) / _ROW_TILE) of them
    # (one if total <= _ROW_TILE + 1), equal to within a row: none holds more
    # than _ROW_TILE + 1 rows, and none one row unless `total` is one
    n = max(1, -(-(total - 1) // _ROW_TILE))
    return [(total * i // n, total * (i + 1) // n) for i in range(n)]


def worker_count(environ, cpus: int) -> int:
    """W = max(1, cpus // blas_threads), blas_threads read from `environ` as
    OpenBLAS reads it (see BLAS_THREAD_VARS)."""
    blas_threads = cpus
    for name in BLAS_THREAD_VARS:
        try:
            value = int(environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, cpus // blas_threads)


def attention_workers() -> int:
    """This process's W, from its environment and the CPUs it may run on."""
    global _WORKERS
    if _WORKERS is None:
        _WORKERS = worker_count(os.environ, len(os.sched_getaffinity(0)))
    return _WORKERS


def _helper_pool(threads: int):
    # the executor of `threads` helper threads, started on first use in
    # this process (a forked child holds its parent's executor, without
    # its threads); a replaced executor's threads exit once it is collected
    global _POOL
    key = (threads, os.getpid())
    if _POOL is None or _POOL[0] != key:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = (key, ThreadPoolExecutor(threads, thread_name_prefix="t3s-attention"))
    return _POOL[1]


class _AttentionPlan(NamedTuple):
    runs: list  # `_segment_runs` of one layer
    score_tile: int  # entries of its largest chunk score tile
    chunk_rows: int  # (segments, heads, queries) rows of its largest chunk


def _attention_plan(cached, lengths, queries, heads):
    # one layer's `_AttentionPlan`, segment i attending its queries[i] last rows
    runs = _segment_runs(cached, lengths, queries)
    chunk = [(s1 - s0) * heads * min(queries[s0], _QUERY_CHUNK) for s0, s1 in runs]
    tile = max(k * (cached[s0] + lengths[s0]) for k, (s0, _) in zip(chunk, runs))
    return _AttentionPlan(runs, tile, max(chunk))


def _attend_chunk(item, bufs):
    # queries [c0, c0 + _QUERY_CHUNK) of one run; item: (run, c0), a run
    # (qa, kt, va, ctx, received) being r segments that share cached and new
    # lengths, as one (r, heads) stack: qa: (r, heads, nq, head_dim + 1) each
    # segment's trailing nq new queries, scaled by 1/sqrt(head_dim), with -b
    # (each row's score bound) as the last column; kt: (r, heads, head_dim +
    # 1, c + n) its c cached keys then its n new ones, transposed as the
    # score matmul reads them, with a ones last row, so the matmul returns
    # each score minus its row's bound, all <= 0 and ready for `exp` without
    # a max or subtract pass; va: (r, heads, c + n, head_dim + 1) the
    # matching values with a ones last column, so the PV matmul also returns
    # each row's softmax denominator; ctx: (r, heads, nq, head_dim) output, a
    # strided view of the context rows; received: None, or (r, c + n) sums
    # of the attention each key receives; bufs: flat buffers that hold one
    # chunk's score tile and PV product
    (qa, kt, va, ctx, received), c0 = item
    scores_buf, pv_buf = bufs
    r, heads, nq, cols = qa.shape
    cached = kt.shape[3] - nq
    c1 = min(c0 + _QUERY_CHUNK, nq)
    horizon = cached + c1
    scores = scores_buf[: r * heads * (c1 - c0) * horizon].reshape(r, heads, c1 - c0, horizon)
    np.matmul(qa[:, :, c0:c1], kt[..., :horizon], out=scores)
    future = _FUTURE_KEYS[: c1 - c0, : c1 - c0]
    np.copyto(scores[..., cached + c0 :], _NEG_INF, where=future)
    np.exp(scores, out=scores)
    heads_ctx = pv_buf[: r * heads * (c1 - c0) * cols].reshape(r, heads, c1 - c0, cols)
    np.matmul(scores, va[:, :, :horizon], out=heads_ctx)
    sums = heads_ctx[..., -1:]
    if received is not None:
        received[:, :horizon] += (scores / sums).sum(axis=(1, 2))
    np.divide(heads_ctx[..., :-1], sums, out=ctx[:, :, c0:c1])


def _on_tile(stages, tile, bufs):
    # a row phase's work on one tile [t0, t1): each of `stages` in order
    for stage in stages:
        stage(*tile, bufs)


def _share(workers, items, work, bufs):
    # work(item, bufs[i]) once per item, on worker i, which owns bufs[i]. One
    # worker runs every item in list order on the calling thread, which the
    # order-dependent `received` sums need; else min(W, items) workers do,
    # the calling thread and threads of the one pool of W - 1, each taking
    # the next item from one shared list iterator whenever it finishes its
    # last. That is safe because the iterator's __next__ is a single C call,
    # which runs whole under the GIL, so no two workers take the same item.
    # A worker whose item raises takes every item left, so the others stop
    # after their current one, and the first error is raised only once every
    # worker has stopped: none writes the pass's buffers after it returns.
    todo, errors = iter(items), []

    def drain(buf):
        try:
            for item in todo:
                work(item, buf)
        except BaseException as error:
            errors.append(error)
            for _ in todo:
                pass

    helpers = bufs[1 : min(workers, len(items))]
    helping = [_helper_pool(workers - 1).submit(drain, buf) for buf in helpers]
    drain(bufs[0])
    for done in helping:
        done.result()
    if errors:
        raise errors[0]


def _shift_by_bound(qa, kt, starts, queries, past_sq_max, layer):
    # writes -b_i into qa's last column, where b_i = |q_i| * max |k_j| over
    # the keys of row i's segment, cached ones included, so q_i.k_j <= b_i
    # (Cauchy-Schwarz); qa: (heads, rows, head_dim + 1) every query row and
    # kt: (heads, head_dim + 1, tokens) every new key, with segments' keys
    # starting at `starts` and `queries` rows of qa per segment;
    # past_sq_max: None, or the (segments, heads) largest squared norms
    # among cached keys. Returns the (segments, heads) largest squared key
    # norms, cached ones included.
    hd = qa.shape[2] - 1
    q_sq = np.einsum("htd,htd->ht", qa[:, :, :hd], qa[:, :, :hd])
    k_sq = np.einsum("hdt,hdt->ht", kt[:, :hd], kt[:, :hd])
    k_sq_max = np.maximum.reduceat(k_sq, starts, axis=1)
    if past_sq_max is not None:
        np.maximum(k_sq_max, past_sq_max.T, out=k_sq_max)
    bound = np.sqrt(q_sq * np.repeat(k_sq_max, queries, axis=1))
    top = bound.max()
    if top > _MAX_SCORE_BOUND:
        raise ContractError(
            f"layer {layer}: attention score bound {top:.4g} exceeds "
            f"{_MAX_SCORE_BOUND:g}; exp of the shifted scores would underflow"
        )
    np.negative(bound, out=qa[:, :, hd])
    return k_sq_max.T


class _LayerCache(NamedTuple):
    keys: np.ndarray  # (segments, heads, head_dim + 1, capacity)
    values: np.ndarray  # (segments, heads, capacity, head_dim + 1)
    key_sq_max: np.ndarray  # (segments, heads)


def _layer_cache(old, cached, lengths, reserve, key_sq_max, kt):
    # the buffers of one layer's cache after this call: old's, if they hold
    # every segment's tokens so far, else new ones `reserve` tokens longer,
    # with old's cached tokens copied in; kt as `_shift_by_bound` reads it
    need = max(c + n for c, n in zip(cached, lengths))
    if old is not None and old.keys.shape[3] >= need:
        return _LayerCache(old.keys, old.values, key_sq_max)
    heads, rows, _ = kt.shape
    keys = np.empty((len(lengths), heads, rows, need + reserve))
    values = np.empty((len(lengths), heads, need + reserve, rows))
    if old is not None:
        held = max(cached)
        keys[..., :held] = old.keys[..., :held]
        values[:, :, :held] = old.values[:, :, :held]
    return _LayerCache(keys, values, key_sq_max)


class SeededTransformer:
    """Pre-norm causal decoder with deterministic seeded weights.

    Blocks are LN -> multi-head attention -> residual, LN -> 4x GELU MLP ->
    residual, with a final LN before the vocabulary projection. No biases.
    `last_logits` projects keys and values at every position of every layer,
    but the last layer's queries and everything after its attention only at
    each segment's last row. Given a `SegmentCache` it keeps every segment's
    per-layer keys and values, so the next call computes only the tokens it
    appends.
    """

    def __init__(self, cfg: ModelConfig):
        self.config = cfg
        self.head_dim = cfg.model_dim // cfg.heads
        self.weights = _draw_weights(cfg)

    @property
    def max_positions(self) -> int:
        return self.config.max_positions

    def forward(self, packed: PackedSequence) -> ForwardResult:
        return ForwardResult(self._run(packed)[0], self.pair_count(packed))

    def pair_count(self, packed: PackedSequence) -> int:
        """`forward(packed).pair_count`, from the segment layout alone."""
        return self.config.layers * self.config.heads * _segment_pair_count(packed)

    def last_logits(
        self, packed: PackedSequence, cache: Optional[SegmentCache] = None
    ) -> np.ndarray:
        """`forward(packed).logits[last_positions(packed)]`, within 1e-12, as
        one (segments, vocab) array; given `cache`, `packed` continues it.
        The last layer runs its queries, FFN and unembedding on each
        segment's last row only. The cache is checked before the pass runs
        and extended only after it returns, so a call that raises leaves it
        as it was."""
        _check_cached(self, cache)
        if not packed.segments:
            # no last row to read; only an empty cache takes no segments
            if cache is not None:
                cache.cached(packed)
            return np.empty((0, self.config.vocab))
        logits, state = self._run(packed, cache, last_only=True)
        if cache is not None:
            cache.extend(self, packed, state)
        return logits

    def block_logits(self, videos, questions, rows) -> np.ndarray:
        """(R, m, vocab) last-position logits of R tasks' m trials, equal bit
        for bit to `last_logits(pack(plans[r], videos[r], questions[r]))` for
        each task r, where `rows[i][r]` is what `packer.kept_rows` gives for
        trial i of task r: one pass per task over `pack_rows` of its rows.
        Shapes `packer.check_block` refuses raise ContractError."""
        check_block(len(videos), questions, rows)
        out = np.empty((len(videos), len(rows), self.config.vocab))
        for r, video in enumerate(videos):
            packed = pack_rows([trial[r] for trial in rows], video, questions[r])
            out[r] = self._run(packed, last_only=True)[0]
        return out

    def attention_received(self, packed: PackedSequence) -> np.ndarray:
        """Per-position mean attention weight received, averaged over every
        layer, head, and same-segment query allowed to attend the position."""
        received = np.zeros(packed.total_length)
        self._run(packed, received=received)
        # queries that may attend each position: itself and every later
        # position of its segment
        attending = np.concatenate([np.arange(s.length, 0, -1) for s in packed.segments])
        return received / (self.config.layers * self.config.heads * attending)

    def _embed(self, packed: PackedSequence, cached: list[int]):
        # the pass's checks, then its (total, model_dim) input x, still
        # unwritten, and the first row phase's stage that writes x tile by
        # tile
        cfg = self.config
        total = sum(cached) + packed.total_length
        if total > cfg.max_positions:
            raise ContractError(
                f"sequence length {total} exceeds max_positions={cfg.max_positions}"
            )
        if packed.video.model_dim != cfg.model_dim:
            raise ShapeError(
                f"video model_dim {packed.video.model_dim} != config {cfg.model_dim}"
            )
        if packed.token_ids.max(initial=-1) >= cfg.vocab:
            raise ContractError("token id outside vocabulary")
        starts = np.array([s.start for s in packed.segments])
        # a segment's new tokens continue its cached positions
        x = np.empty((packed.total_length, cfg.model_dim))
        return x, partial(_embed_rows, packed, starts, starts - cached, self.weights["token_embedding"], x)

    def _run(self, packed, cache=None, last_only=False, received=None):
        # cache: None, or the `SegmentCache` that `packed` continues, which
        # this pass reads but does not extend: then also return its state
        # after the pass, the `_LayerCache` of every layer, else None;
        # last_only: the last layer's queries and all after its attention
        # cover each segment's last row only, so the logits are (segments,
        # vocab); received: None, or a (total,) array that sums the attention
        # each position receives over layers, heads and queries
        cfg = self.config
        w = self.weights
        n_seg = packed.num_segments
        cached = [0] * n_seg if cache is None else cache.cached(packed)
        x, embed = self._embed(packed, cached)
        total = len(x)
        starts = [s.start for s in packed.segments]
        lengths = [s.length for s in packed.segments]
        inv_sqrt = 1.0 / math.sqrt(self.head_dim)
        heads, hd = cfg.heads, self.head_dim
        prior = cache.state if any(cached) else [None] * cfg.layers
        kept = []
        plans = [_attention_plan(cached, lengths, lengths, heads)]
        if last_only:
            plans.append(_attention_plan(cached, lengths, [1] * n_seg, heads))
        # W workers where the pass has two or more row tiles, unless it sums
        # `received`, whose sums depend on the order of the chunks
        tiles = _row_tiles(total)
        workers = attention_workers() if received is None and len(tiles) > 1 else 1

        # the pass's buffers, which every layer writes in place; a worker's
        # row buffers and attention buffers share one block, as it never
        # needs both at once. The calling thread's block is part of the
        # pass's allocation and each pool thread's is one of its own: with
        # every block in the pass's allocation glibc kept more freed heap
        # resident, and perfbench's decode_short_trials peaked at 51.0 MB,
        # where it peaks at 49.6 MB so (48.3 MB with its passes serial)
        tile = min(total, _ROW_TILE + 1)
        attention = [
            (max(p.score_tile for p in plans),),
            (max(p.chunk_rows for p in plans) * (hd + 1),),
        ]
        row = [(tile, cfg.model_dim), (2, tile, 4 * cfg.model_dim)]
        block = max(sum(map(_padded, attention)), sum(map(_padded, row)))
        qa, kt, va, ctx, *blocks = _workspace(
            (heads, total, hd + 1),
            (heads, hd + 1, total),
            (heads, total, hd + 1),
            (total, cfg.model_dim),
            (block,),
        )
        blocks += [_workspace((block,))[0] for _ in range(workers - 1)]
        kt[:, hd] = 1.0
        va[:, :, hd] = 1.0
        row_bufs = [_views(b, row) for b in blocks]
        attention_bufs = [_views(b, attention) for b in blocks]

        ctx_rows = ctx.reshape(total, heads, hd)
        # segment i's queries are its trailing queries[i] rows of layer_qa
        plan, layer_qa, queries, q_starts = plans[0], qa, lengths, starts

        # a row phase runs, tile by tile, the previous layer's MLP, or the
        # embedding before the first layer, and then the next layer's
        # projections, or the unembedding after the last layer
        stages = [embed]
        for layer in range(cfg.layers):
            wq, wk, wv, wo, w_in, w_out = (
                w[f"layer{layer}.{name}"]
                for name in ("attn_query", "attn_key", "attn_value", "attn_out", "ffn_in", "ffn_out")
            )
            last = last_only and layer == cfg.layers - 1
            stages.append(partial(_project, x, None if last else wq, wk, wv, inv_sqrt, qa, kt, va))
            _share(workers, tiles, partial(_on_tile, stages), row_bufs)
            if last:
                plan, layer_qa = plans[1], qa[:, :n_seg]
                x = x[[b + n - 1 for b, n in zip(starts, lengths)]]
                queries, q_starts = [1] * n_seg, list(range(n_seg))
                query = partial(_project, x, wq, None, None, inv_sqrt, layer_qa, kt, va)
                _share(workers, _row_tiles(n_seg), partial(_on_tile, [query]), row_bufs)
            old = prior[layer]
            past_sq_max = None if old is None else old.key_sq_max
            k_sq_max = _shift_by_bound(layer_qa, kt, starts, queries, past_sq_max, layer)
            held = None
            if cache is not None:
                held = _layer_cache(old, cached, lengths, cache.reserve, k_sq_max, kt)
                kept.append(held)
            chunks = []
            for s0, s1 in plan.runs:
                # the run's segments as one stack of views: of the new rows,
                # or of the cache buffers once the new rows are written there
                r, c, n, nq = s1 - s0, cached[s0], lengths[s0], queries[s0]
                b, qb = starts[s0], q_starts[s0]
                k_run = kt[:, :, b : b + r * n].reshape(heads, hd + 1, r, n).transpose(2, 0, 1, 3)
                v_run = va[:, b : b + r * n].reshape(heads, r, n, hd + 1).transpose(1, 0, 2, 3)
                if held is not None:
                    held.keys[s0:s1, :, :, c : c + n] = k_run
                    held.values[s0:s1, :, c : c + n] = v_run
                    k_run, v_run = held.keys[s0:s1, :, :, : c + n], held.values[s0:s1, :, : c + n]
                q_run = slice(qb, qb + r * nq)
                run = (
                    layer_qa[:, q_run].reshape(heads, r, nq, hd + 1).transpose(1, 0, 2, 3),
                    k_run,
                    v_run,
                    ctx_rows[q_run].reshape(r, nq, heads, hd).transpose(0, 2, 1, 3),
                    None if received is None else received[b : b + r * n].reshape(r, n),
                )
                chunks += [(run, c0) for c0 in range(0, nq, _QUERY_CHUNK)]
            _share(workers, chunks, _attend_chunk, attention_bufs)
            stages = [partial(_mlp_block, x, ctx, wo, w_in, w_out)]

        logits = np.empty((len(x), cfg.vocab))
        stages.append(partial(_unembed, x, w["unembedding"], logits))
        _share(workers, _row_tiles(len(x)), partial(_on_tile, stages), row_bufs)
        return logits, None if cache is None else kept


def _embed_rows(packed, starts, offsets, token_embedding, x, t0, t1, bufs):
    # rows [t0, t1) of a pass's input x: each position's video row or token
    # embedding, plus the sinusoid of its position p - offsets[i] in its
    # segment i, which starts at starts[i]; the video rows and sinusoids are
    # drawn into a worker's second FFN tile, which `_project` overwrites
    # (within 2.1% of new arrays)
    ids, rows = packed.token_ids[t0:t1], x[t0:t1]
    drawn, waves = bufs[1][1, : t1 - t0].reshape(4, t1 - t0, x.shape[1])[:2]
    visual = ids < 0
    first, n = np.count_nonzero(packed.token_ids[:t0] < 0), np.count_nonzero(visual)
    rows[visual] = packed.video.rows(packed.rows[first : first + n], out=drawn[:n])
    rows[~visual] = token_embedding[ids[~visual]]
    at = np.arange(t0, t1)
    rows += _sinusoidal(at - offsets[np.searchsorted(starts, at, side="right") - 1], x.shape[1], waves)


def _project(x, wq, wk, wv, inv_sqrt, qa, kt, va, t0, t1, bufs):
    # layer norm of rows [t0, t1) of x, then their queries (scaled by
    # inv_sqrt) into qa, keys into kt and values into va, as `_attend_chunk`
    # reads them; wq None skips the queries, wk None the keys and values;
    # bufs: a worker's (tile rows, model_dim) and (2, tile rows, 4 *
    # model_dim) row buffers
    heads, hd = qa.shape[0], qa.shape[2] - 1
    h, p = _norm(x, t0, t1, bufs[1]), bufs[0][: t1 - t0]
    if wq is not None:
        np.matmul(h, wq, out=p)
        np.multiply(_split_heads(p, heads, hd), inv_sqrt, out=qa[:, t0:t1, :hd])
    if wk is not None:
        np.matmul(h, wk, out=p)
        kt[:, :hd, t0:t1] = p.reshape(-1, heads, hd).transpose(1, 2, 0)
        np.matmul(h, wv, out=p)
        va[:, t0:t1, :hd] = _split_heads(p, heads, hd)


def _mlp_block(x, ctx, wo, w_in, w_out, t0, t1, bufs):
    # the rest of a layer on rows [t0, t1), in place on x: the attention
    # output projection of ctx plus the residual, then layer norm, FFN and
    # residual; bufs as `_project` reads them
    p, f = bufs[0][: t1 - t0], bufs[1][:, : t1 - t0]
    np.matmul(ctx[t0:t1], wo, out=p)
    x[t0:t1] += p
    np.matmul(_norm(x, t0, t1, bufs[1]), w_in, out=f[0])
    _gelu(f[0], out=f[1])
    np.matmul(f[1], w_out, out=p)
    x[t0:t1] += p


def _unembed(x, unembedding, logits, t0, t1, bufs):
    # the final layer norm of rows [t0, t1) of x and their vocabulary logits
    np.matmul(_norm(x, t0, t1, bufs[1]), unembedding, out=logits[t0:t1])


def _norm(x, t0, t1, ffn):
    # layer norm of rows [t0, t1) of x, written with its squares into a
    # worker's second FFN tile, which no stage reads before the norm is used
    scratch = ffn[1, : t1 - t0].reshape(4, t1 - t0, x.shape[1])
    return layer_norm(x[t0:t1], out=scratch[0], work=scratch[1])


def _split_heads(x: np.ndarray, heads: int, head_dim: int) -> np.ndarray:
    return x.reshape(len(x), heads, head_dim).transpose(1, 0, 2)


def _gelu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # tanh approximation (exact erf is not worth a scipy dependency here),
    # with c*(x + 0.044715*x^3) in Horner form x*(c + c*0.044715*x^2): one
    # buffer (`out`, or a new one), in-place ufuncs, no pow; x itself is
    # left untouched
    out = np.multiply(x, x, out=out)
    out *= _GELU_C * 0.044715
    out += _GELU_C
    out *= x
    np.tanh(out, out=out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def _draw_weights(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Seeded weights, drawn from one stream in a pinned name order."""
    d, f = cfg.model_dim, 4 * cfg.model_dim
    entries: list[tuple[str, tuple[int, ...]]] = [("token_embedding", (cfg.vocab, d))]
    for layer in range(cfg.layers):
        entries += [
            (f"layer{layer}.attn_query", (d, d)),
            (f"layer{layer}.attn_key", (d, d)),
            (f"layer{layer}.attn_value", (d, d)),
            (f"layer{layer}.attn_out", (d, d)),
            (f"layer{layer}.ffn_in", (d, f)),
            (f"layer{layer}.ffn_out", (f, d)),
        ]
    entries.append(("unembedding", (d, cfg.vocab)))
    g = Rng(cfg.init_seed).generator()
    scale = 1.0 / math.sqrt(d)
    return {name: g.standard_normal(shape) * scale for name, shape in entries}


def build_model(cfg: ModelConfig) -> SeededTransformer:
    return SeededTransformer(cfg)


_SIG_ID_TAG = 0xA5A5A5A5A5A5A5A5
_SIG_ROW_TAG = 0x5A5A5A5A5A5A5A5A
_SIG_SEED_TAG = 0xC3C3C3C3C3C3C3C3
_SIG_POS_TAG = 0x3C3C3C3C3C3C3C3C
_ANSWER_TAG = 0x9E9E9E9E9E9E9E9E
_MASK64 = (1 << 64) - 1


def needle_answer(video_key, vocab: int):
    """The answer id of every needle task on the video with key `video_key`;
    it avoids token 0, which wins all-zero ties. Given a uint64 array of
    keys (each key & _MASK64), the array of their ids."""
    return 1 + mix64(video_key ^ _ANSWER_TAG) % (vocab - 1)


def _video_keys(videos) -> np.ndarray:
    return np.array([v.key & _MASK64 for v in videos], dtype=np.uint64)


def _row_keys(keys):
    # mix64(K ^ _SIG_ROW_TAG) of each video key K (uint64)
    return mix64(keys ^ np.uint64(_SIG_ROW_TAG))


def _row_sigs(rows, row_keys):
    # a visual token's signature: mix64(r ^ its video's `_row_keys` entry)
    # of its row id r, row_keys broadcast against rows
    return mix64(rows.astype(np.uint64) ^ row_keys)


def _id_sigs(token_ids):
    # a vocabulary token's signature: mix64(t ^ _SIG_ID_TAG) of its id t
    return mix64(token_ids.astype(np.uint64) ^ np.uint64(_SIG_ID_TAG))


def _keyed(sigs, positions):
    # keyed[j] = mix64(sig[j] ^ mix64(j ^ _SIG_POS_TAG)); positions
    # broadcast against sigs
    return mix64(sigs ^ mix64(positions.astype(np.uint64) ^ np.uint64(_SIG_POS_TAG)))


def _check_vocab(token_ids, vocab: int) -> None:
    if token_ids.max(initial=-1) >= vocab:
        raise ContractError("token id outside vocabulary")


def _probe_pass(packed, cached, vocab):
    # every position of `packed`: keyed[j] of NeedleProbe's docstring and a
    # 0/1 needle flag; and per segment its start and its length. cached: per
    # segment the tokens a cache holds before it, which offset its
    # positions, or 0 for none. A token id outside the vocabulary raises
    # ContractError, as in the transformer
    lengths = [s.length for s in packed.segments]
    starts = np.cumsum(lengths) - lengths
    token_ids, video = packed.token_ids, packed.video
    _check_vocab(token_ids, vocab)
    visual = token_ids < 0
    sigs = _id_sigs(token_ids)
    sigs[visual] = _row_sigs(packed.rows, _row_keys(_video_keys([video])))
    keyed = _keyed(sigs, np.arange(len(token_ids)) - np.repeat(starts - cached, lengths))
    is_needle = np.zeros(len(token_ids), dtype=np.int64)
    is_needle[visual] = video.needle_mask[packed.rows // video.tokens_per_frame]
    return keyed, is_needle, starts, lengths


def _noise_logits(acc, keys, noise_scale, vocab: int) -> np.ndarray:
    # (len(acc), vocab) noise in [-noise_scale, noise_scale], row i seeded by
    # its prefix XOR acc[i] and its video's key; keys (uint64, each key &
    # _MASK64) broadcast against the rows
    hashes = mix64(acc ^ mix64(keys ^ np.uint64(_SIG_SEED_TAG)))
    dmix = mix64(np.arange(7, 7 + vocab, dtype=np.uint64))
    u = (mix64(hashes[:, None] ^ dmix[None, :]) >> np.uint64(11)).astype(
        np.float64
    ) * (1.0 / (1 << 53))
    return u * (2.0 * noise_scale) - noise_scale


class NeedleProbe:
    """Hand-constructed backend with a controllable answer signal.

    At every position p the logit of the answer id, `needle_answer` of the
    video's key, equals the number of surviving needle tokens (visual rows of
    a frame in the video's `needle_mask`) at or before p in p's segment; all
    other logits are noise in [-noise_scale, noise_scale], noise_scale < 1,
    seeded purely by the video's key and the segment's content prefix, so
    packed and solo forwards agree exactly. The probe reads row ids only and
    never draws a row.

    The prefix hash is an order-sensitive prefix XOR. Position j of a
    segment (counted from the segment's first token, cached ones included)
    contributes keyed[j] = mix64(sig[j] ^ mix64(j ^ _SIG_POS_TAG)), where
    sig[j] is the token's content signature: for row r of a video with key
    K, mix64(r ^ mix64(K ^ _SIG_ROW_TAG)); for a vocabulary id t,
    mix64(t ^ _SIG_ID_TAG). Position p's prefix is
    acc[p] = keyed[0] ^ ... ^ keyed[p], and its noise is seeded by
    mix64(acc[p] ^ mix64(K ^ _SIG_SEED_TAG)). Given a `SegmentCache`,
    `last_logits` keeps each segment's acc at its last position and its
    needle count. `forward` and `last_logits` read one pass, which builds
    every position's keyed signature and needle flag; `block_logits` reads
    a block of tasks' trials from the row ids `packer.kept_rows` gives their
    stacked plans, with no pack.
    """

    max_positions: Optional[int] = None

    def __init__(self, vocab: int, noise_scale: float = 0.1):
        # the answer rule takes ids 1..vocab-1, so it needs two ids
        if vocab < 2:
            raise ConfigError(f"vocab must be >= 2, got {vocab}")
        if not (0.0 <= noise_scale < 1.0):
            raise ConfigError(f"noise_scale must lie in [0, 1), got {noise_scale}")
        self.vocab = vocab
        self.noise_scale = noise_scale

    def forward(self, packed: PackedSequence) -> ForwardResult:
        keyed, is_needle, starts, lengths = _probe_pass(packed, 0, self.vocab)
        # one prefix over the whole sequence, re-based at each segment start
        # by XORing out (XOR undoes XOR) or subtracting what it held before
        acc = np.bitwise_xor.accumulate(keyed)
        acc ^= np.repeat(acc[starts] ^ keyed[starts], lengths)
        counts = np.cumsum(is_needle)
        counts -= np.repeat(counts[starts] - is_needle[starts], lengths)

        keys = np.repeat(_video_keys([packed.video]), len(acc))
        return ForwardResult(self._last_rows(acc, counts, keys), self.pair_count(packed))

    def last_logits(
        self, packed: PackedSequence, cache: Optional[SegmentCache] = None
    ) -> np.ndarray:
        """`forward(packed).logits[last_positions(packed)]` as one (segments,
        vocab) array, bit for bit; given `cache`, `packed` continues it. Each
        segment's prefix XOR and needle count are a `reduceat` over its new
        tokens folded into the cache's state, so noise is drawn for last rows
        only."""
        _check_cached(self, cache)
        cached = 0 if cache is None else cache.cached(packed)
        if not packed.segments:
            return np.empty((0, self.vocab))
        keyed, is_needle, starts, _ = _probe_pass(packed, cached, self.vocab)
        acc = np.bitwise_xor.reduceat(keyed, starts)
        counts = np.add.reduceat(is_needle, starts)
        if cache is not None and cache.state is not None:
            acc ^= cache.state[0]
            counts += cache.state[1]
        keys = np.repeat(_video_keys([packed.video]), packed.num_segments)
        logits = self._last_rows(acc, counts, keys)
        if cache is not None:
            cache.extend(self, packed, (acc, counts))
        return logits

    def block_logits(self, videos, questions, rows) -> np.ndarray:
        """(R, m, vocab) last-position logits of R tasks' m trials, equal bit
        for bit to `last_logits(pack(plans[r], videos[r], questions[r]))` for
        each task r, where `rows[i][r]` is what `packer.kept_rows` gives for
        trial i of task r.

        `questions` is (R, q) and each `rows[i]` (R, k_i) video row ids.
        Segment (r, i) holds rows[i][r] and then questions[r]; its prefix
        XOR is one `np.bitwise_xor.reduceat` over those tokens. The videos
        must share their frame and token counts. A row outside the video
        raises ContractError, and so do shapes `packer.check_block` refuses,
        a layout `packer.segment_lengths` refuses and a question id outside
        the vocabulary, as in `pack` and `last_logits`."""
        check_block(len(videos), questions, rows)
        if not videos:
            return np.empty((0, len(rows), self.vocab))
        frame_count, per_frame = videos[0].num_frames, videos[0].tokens_per_frame
        if any((v.num_frames, v.tokens_per_frame) != (frame_count, per_frame) for v in videos):
            raise ContractError("a block's videos must share their frame and token counts")
        questions = np.asarray(questions, dtype=np.int64)
        lengths = segment_lengths([r.shape[1] for r in rows], questions)
        _check_vocab(questions, self.vocab)
        keys = _video_keys(videos)
        row_keys = _row_keys(keys)[:, None]
        masks = np.array([v.needle_mask for v in videos])
        question_sigs = _id_sigs(questions)
        sigs, needles = [], []
        for r in rows:
            # per_row would read another task's mask at a row past the video
            if r.size and not (0 <= r.min() and r.max() < frame_count * per_frame):
                raise ContractError("row index outside the video")
            sigs += [_row_sigs(r, row_keys), question_sigs]
            needles.append(np.count_nonzero(per_row(masks, r // per_frame), axis=1))
        starts = np.cumsum(lengths) - lengths
        keyed = _keyed(
            np.concatenate(sigs, axis=1), np.arange(sum(lengths)) - np.repeat(starts, lengths)
        )
        acc = np.bitwise_xor.reduceat(keyed, starts, axis=1)
        counts = np.stack(needles, axis=1)
        logits = self._last_rows(acc.ravel(), counts.ravel(), np.repeat(keys, len(rows)))
        return logits.reshape(len(videos), len(rows), self.vocab)

    def _last_rows(self, acc, counts, keys) -> np.ndarray:
        # one logits row per position read, from its prefix XOR, its needle
        # count and its video's key (uint64)
        logits = _noise_logits(acc, keys, self.noise_scale, self.vocab)
        logits[np.arange(len(acc)), needle_answer(keys, self.vocab)] = counts
        return logits

    def pair_count(self, packed: PackedSequence) -> int:
        """`forward(packed).pair_count`, from the segment layout alone."""
        return _segment_pair_count(packed)
