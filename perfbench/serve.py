"""``serve_uniform_shard4``: open-loop serving through a 4-shard router.

Requests arrive as a Poisson process at a fixed rate; the generator
submits each one when it is due, whether or not earlier ones have been
answered (independent users, an open loop). One thread drives the
program's public ``submit``/``step`` and ``tick`` (once per loop
iteration) on the router's default ``monotonic_ms`` clock. Each request
is timed from when it was *due*, so a stall that delays later submissions
counts against them, and the generator's own lateness is reported.

Ids are uniform, so most lookups miss the 1% cache and take the TT
path. Each run serves 200 and 1000 requests/s open-loop and measures the
saturated throughput: a closed loop that hands the server a full
micro-batch before every ``step``, so it never waits for arrivals. The
saturated rate is an upper bound on the highest open-loop rate that
meets a p99 limit; a search for that rate spread by 26% between runs on
a shared 2-vCPU host, wider than any usable bound.

Oracle: a seeded sample of answered requests is re-scored by the
offline ``Predictor``; every answer must agree within
:data:`ORACLE_ATOL`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from repro.inference import Predictor
from repro.serving import ServerConfig
from repro.serving.admission import Request
from repro.sharding import ShardConfig, ShardRouter

from .common import median, out_dir, percentile, windowed_percentile
from .layers import DedupCounter, layer_report, trace_embeddings, trace_router
from .model import SPEC, build_model, cache_counts, embedding_bytes
from .spans import SpanRecorder

NAME = "serve_uniform_shard4"
SHARDS = 4
RATES = (200, 1000)
# Queue bound and request deadline, widened from the serving defaults
# (64, 50 ms): a shared host can stall the process for half a second,
# after which the generator submits every request that fell due at once;
# a bound of 256 refused ~400 of them. Latency still counts from the due
# time, so a slower program shows there.
SERVER = ServerConfig(max_depth=8192, default_deadline_ms=5000.0)
# Slices per measurement and run (see :func:`run`); the host's speed is
# sampled after each slice.
CYCLES = 16
# Requests recycled by the saturated closed loop (admission builds a new
# request object from each one, so resubmitting one is safe).
SATURATION_POOL = 2048
# Cache warm-up: untimed forwards of the workload's own id distribution;
# the cache fills from the LFU tracker on the last one. The TT planner's
# buffer pool rounds to powers of two and keeps its largest batch, so
# the bag count is chosen to keep every table's miss count inside one
# bucket (~770 ids); at 512 bags peak RSS jumped by ~10% from seed to
# seed.
WARM_FORWARDS = 8
WARM_BAGS = 384
ORACLE_SAMPLE = 64
ORACLE_ATOL = 1e-12
# p99 is taken per window of this many requests (10 beyond the p99 in
# each) and the windows' median reported.
TAIL_WINDOW = 1000


@dataclass
class ServeContext:
    model: object
    predictor: Predictor
    front: ShardRouter
    rng: np.random.Generator
    next_id: int = 0


@dataclass
class Phase:
    """One open-loop phase at a fixed rate."""

    rate: float
    requests: list
    latency_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    queue_wait_ms: list = field(default_factory=list)
    batch_sizes: list = field(default_factory=list)
    answers: dict = field(default_factory=dict)   # index -> prob
    degraded: int = 0
    busy_ns: int = 0          # time inside submit/step/tick

    @property
    def unanswered(self) -> int:
        return len(self.requests) - len(self.answers)

    @property
    def failed(self) -> int:
        """Refused, shed in the queue, or answered by a fallback rung."""
        return self.unanswered + self.degraded

    def p(self, q: float) -> float:
        return percentile(self.latency_ms, q) if self.latency_ms else float("inf")

    def tail(self) -> float:
        """Median over windows of :data:`TAIL_WINDOW` requests of their p99."""
        if not self.latency_ms:
            return float("inf")
        return windowed_percentile(self.latency_ms, 99, TAIL_WINDOW)


def uniform_bags(rng: np.random.Generator, n: int) -> list[list]:
    """Per table, ``n`` bags of 1-3 uniform ids."""
    per_table = []
    for size in SPEC.table_sizes:
        counts = rng.integers(1, 4, size=n)
        ids = rng.integers(0, size, size=int(counts.sum()), dtype=np.int64)
        per_table.append(np.split(ids, np.cumsum(counts)[:-1]))
    return per_table


def csr(bags: list) -> tuple[np.ndarray, np.ndarray]:
    """One table's bags as ``(indices, offsets)``."""
    counts = np.array([b.size for b in bags], dtype=np.int64)
    return (np.concatenate(bags), np.concatenate([[0], np.cumsum(counts)]))


def make_requests(ctx: ServeContext, n: int) -> list[Request]:
    """``n`` requests: normal dense features, 1-3 ids per table bag."""
    dense = ctx.rng.normal(size=(n, SPEC.num_dense))
    per_table = uniform_bags(ctx.rng, n)
    base = ctx.next_id
    ctx.next_id += n
    return [Request(dense=dense[i], sparse=[bags[i] for bags in per_table],
                    request_id=base + i) for i in range(n)]


def open_loop(ctx: ServeContext, rate: float, seconds: float,
              rec: SpanRecorder | None = None, front=None,
              into: Phase | None = None) -> Phase:
    """Offer Poisson arrivals at ``rate`` for ``seconds``, then drain.

    With ``into``, the requests and their outcomes are appended to an
    earlier phase at the same rate.
    """
    front = front if front is not None else ctx.front
    n = max(1, int(round(rate * seconds)))
    phase = into if into is not None else Phase(rate, [])
    requests = make_requests(ctx, n)
    offset = len(phase.requests)
    phase.requests.extend(requests)
    base = requests[0].request_id - offset
    gaps = ctx.rng.exponential(1e9 / rate, size=n)
    clock = perf_counter_ns
    start = clock() + 1_000_000
    due = [0] * offset + (start + np.cumsum(gaps)).astype(np.int64).tolist()
    submitted = [0] * (offset + n)
    call = rec.call if rec is not None else (lambda _name, fn, *a: fn(*a))

    def serve_batch():
        began = clock()
        responses = front.step()
        done = clock()
        for resp in responses:
            i = resp["request_id"] - base
            phase.answers[i] = resp["prob"]
            phase.degraded += bool(resp["degraded"])
            phase.latency_ms.append((done - due[i]) / 1e6)
            phase.queue_wait_ms.append((began - submitted[i]) / 1e6)
        if responses:
            phase.batch_sizes.append(len(responses))

    i, n = offset, offset + n
    while True:
        now = clock()
        if not front.queue.depth:
            if i >= n:
                break
            if due[i] > now:
                # Idle: spin until the next arrival is due. Sleeping would
                # let the host park the vCPU, and its wake-up delay would
                # enter the latency.
                continue
        while i < n and due[i] <= now:
            if rec is not None:
                rec.unit = base + i
            phase.late_ms.append((now - due[i]) / 1e6)
            # A refused or shed request is never answered: it counts in
            # Phase.unanswered.
            call("bench.submit", front.submit, phase.requests[i])
            submitted[i] = clock()
            phase.busy_ns += submitted[i] - now
            i += 1
            now = submitted[i - 1]
        if front.queue.depth:
            if rec is not None:
                rec.unit = f"batch@{now}"
            began = clock()
            call("bench.step", serve_batch)
            phase.busy_ns += clock() - began
        began = clock()
        call("bench.tick", front.tick)
        phase.busy_ns += clock() - began
    return phase


def saturate(ctx: ServeContext, seconds: float,
             pool: list[Request]) -> tuple[int, int, int, float]:
    """Closed loop, a full batch per step.

    Returns ``(answered, sent, failed, elapsed_s)``.
    """
    front = ctx.front
    batch = front.config.max_batch
    sent = answered = degraded = 0
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while perf_counter_ns() < deadline or not answered:
        for _ in range(batch):
            front.submit(pool[sent % len(pool)])
            sent += 1
        responses = front.step()
        answered += len(responses)
        degraded += sum(bool(r["degraded"]) for r in responses)
        front.tick()
    elapsed = (perf_counter_ns() - start) / 1e9
    return answered, sent, sent - answered + degraded, elapsed


def rescore_mismatches(predictor: Predictor, requests: list[Request],
                       probs: list[float], atol: float = ORACLE_ATOL) -> int:
    """How many served answers the offline ``Predictor`` disagrees with."""
    if not requests:
        return 0
    dense = np.stack([r.dense for r in requests])
    sparse = [csr([np.asarray(r.sparse[t], dtype=np.int64) for r in requests])
              for t in range(SPEC.num_tables)]
    expected = predictor.predict_proba(dense, sparse)
    served = np.asarray(probs, dtype=np.float64)
    ok = np.isfinite(served) & (np.abs(served - expected) <= atol)
    return int((~ok).sum())


def oracle_failures(ctx: ServeContext, phases: list[Phase], seed: int) -> int:
    """Re-score a seeded sample of answered requests from ``phases``."""
    answered = [(p.requests[i], prob) for p in phases
                for i, prob in sorted(p.answers.items())]
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(answered), size=min(ORACLE_SAMPLE, len(answered)),
                      replace=False) if answered else []
    sample = [answered[k] for k in sorted(pick)]
    return rescore_mismatches(ctx.predictor, [r for r, _ in sample],
                              [p for _, p in sample])


def build_router(predictor: Predictor) -> ShardRouter:
    return ShardRouter(predictor, config=SERVER,
                       shard_config=ShardConfig(num_shards=SHARDS))


def setup(seed: int) -> ServeContext:
    model = build_model(seed, warmup_steps=WARM_FORWARDS - 1,
                        refresh_interval=None)
    rng = np.random.default_rng(seed)
    # The router's ``lookup`` path neither fills nor counts the cache, so
    # it is filled here through ``model.forward``.
    for _ in range(WARM_FORWARDS):
        model.forward(rng.normal(size=(WARM_BAGS, SPEC.num_dense)),
                      [csr(bags) for bags in uniform_bags(rng, WARM_BAGS)])
    predictor = Predictor(model)
    ctx = ServeContext(model, predictor, build_router(predictor), rng)
    # A few untimed requests: first-call allocations and code paths.
    open_loop(ctx, 1000.0, 0.05)
    return ctx


def close(ctx: ServeContext) -> None:
    """Nothing to remove: serving writes no files outside traces."""


def run(ctx: ServeContext, seed: int, seconds: float, trace: bool,
        pause) -> dict:
    if trace:
        return run_traced(ctx, seed, seconds)
    # The three measurements take turns in short slices, so a slow
    # stretch of the host hits all of them alike instead of one.
    slice_s = seconds / CYCLES
    pool = make_requests(ctx, SATURATION_POOL)
    low, high = Phase(RATES[0], []), Phase(RATES[1], [])
    answered = sat_sent = sat_failed = 0
    sat_s = 0.0
    for _ in range(CYCLES):
        open_loop(ctx, RATES[0], 0.4 * slice_s, into=low)
        pause()
        open_loop(ctx, RATES[1], 0.4 * slice_s, into=high)
        pause()
        got, sent, bad, took = saturate(ctx, 0.2 * slice_s, pool)
        pause()
        answered, sat_sent = answered + got, sat_sent + sent
        sat_failed, sat_s = sat_failed + bad, sat_s + took
    rps = answered / sat_s
    mismatches = oracle_failures(ctx, [low, high], seed)
    summary = {
        "serve.p50_ms.r200": low.p(50), "serve.p99_ms.r200": low.p(99),
        "serve.p50_ms.r1000": high.p(50),
        "serve.p99_ms.r1000": high.p(99),
        "serve.p99_ms.r1000_windowed": high.tail(),
        "serve.saturated_rps": rps,
        "served": [len(low.answers), len(high.answers), answered],
        "refused_or_shed": [low.unanswered, high.unanswered],
        "degraded": [low.degraded, high.degraded],
        "oracle_mismatches": mismatches,
        "loadgen.late_p99_ms": [percentile(low.late_ms, 99),
                                percentile(high.late_ms, 99)],
        "model_bytes": embedding_bytes(ctx.model),
    }
    return {
        "attempted": len(low.requests) + len(high.requests) + sat_sent,
        "failed": low.failed + high.failed + sat_failed + mismatches,
        "e2e": {"throughput_per_s": rps, "p50_ms": low.p(50),
                "tail_ms": high.tail()},
        "layers": {},
        "summary": summary,
    }



def run_traced(ctx: ServeContext, seed: int, seconds: float) -> dict:
    # Untraced baseline on the set-up router, then a second router built
    # over wrapped embeddings (its ladders bind them when built).
    base = open_loop(ctx, RATES[1], 0.25 * seconds)
    rec = SpanRecorder()
    dedup = DedupCounter()
    trace_embeddings(rec, ctx.model.embeddings, dedup)
    front = build_router(ctx.predictor)
    trace_router(rec, front)
    open_loop(ctx, 1000.0, 0.05, front=front)  # first-call warm-up
    rec.spans.clear()
    lookups0, hits0 = cache_counts(ctx.model)
    phases = [open_loop(ctx, rate, 0.35 * seconds, rec, front)
              for rate in RATES]
    lookups, hits = cache_counts(ctx.model)
    rec.restore()
    rec.write_jsonl(out_dir() / f"trace-{NAME}-{seed}.jsonl")
    answered = sum(len(p.answers) for p in phases)
    layers = layer_report(rec.spans, answered)
    high = phases[1]
    layers.update({
        "cache.hit_ratio": (hits - hits0) / (lookups - lookups0)
        if lookups > lookups0 else 0.0,
        "tt.dedup_ratio": dedup.ratio,
        "serving.fallback_ratio": sum(p.degraded for p in phases)
        / max(answered, 1),
        "loadgen.late_p99_ms": percentile(
            [x for p in phases for x in p.late_ms], 99),
        "trace.overhead_pct": 100.0 * (
            (high.busy_ns / max(len(high.answers), 1))
            / (base.busy_ns / max(len(base.answers), 1)) - 1.0),
        "model.embedding_bytes": embedding_bytes(ctx.model),
    })
    for rate, phase in zip(RATES, phases):
        layers[f"serving.batch_size.r{rate}"] = float(
            np.mean(phase.batch_sizes)) if phase.batch_sizes else 0.0
        layers[f"serving.queue_wait_ms.r{rate}"] = median(
            phase.queue_wait_ms) if phase.queue_wait_ms else 0.0
    mismatches = oracle_failures(ctx, phases, seed)
    phases.append(base)
    failed = sum(p.failed for p in phases) + mismatches
    return {
        "attempted": sum(len(p.requests) for p in phases),
        "failed": failed,
        "e2e": {},
        "layers": layers,
        "summary": {"oracle_mismatches": mismatches,
                    "served": [len(p.answers) for p in phases[:2]],
                    "unattributed_pct": layers["unattributed_pct"]},
    }
