"""``train_tt_zipf``: a closed loop of ``Trainer.train_step`` calls.

Batch 512 of Zipf(1.05) traffic from ``SyntheticCTRDataset``; the cache
refreshes every 100 forwards (the operator's own schedule) and the loop
writes a checkpoint every 50 steps. Every 100-step window thus holds
two checkpoint steps and one refresh step; the step-time tail is the
mean of each window's slowest 3%, which the checkpoints always reach
and the refresh reaches once it is slower than the ordinary steps'
spread. After the timed loop the model is evaluated on held-out
batches.

Oracle: every loss is finite and the held-out AUC clears
:data:`AUC_FLOOR`.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter_ns

from repro.data import SyntheticCTRDataset
from repro.reliability.checkpoint import CheckpointManager
from repro.training import Trainer

from .common import median, out_dir, percentile, windowed_top_mean
from .layers import DedupCounter, layer_report, trace_embeddings, trace_training
from .model import SPEC, build_model, cache_counts, embedding_bytes
from .spans import SpanRecorder

BATCH_SIZE = 512
ZIPF_S = 1.05
CHECKPOINT_EVERY = 50
REFRESH_EVERY = 100
# The cache fills on the 2nd forward; the untimed warm-up steps in
# set-up cover it and the first-touch allocations.
CACHE_WARMUP = 2
WARMUP_STEPS = 3
EVAL_BATCHES = 8
# The tail is the mean of the slowest TAIL_SHARE of each window of
# TAIL_WINDOW steps (3 steps: as many as the window's checkpoints and
# refreshes), and the windows' median is reported.
TAIL_WINDOW = 100
TAIL_SHARE = 0.03
# Held-out AUC is 0.74-0.80 after 150 steps on every seed tried (0.5
# untrained); a model whose updates are lost or wrong stays near 0.5.
# Shorter runs (tiny test runs) have not learned enough to be judged.
AUC_FLOOR = 0.70
AUC_MIN_STEPS = 150
NOISE = 0.7
# The host's speed is sampled after every PAUSE_EVERY_S of stepping.
PAUSE_EVERY_S = 1.0


@dataclass
class TrainContext:
    trainer: Trainer
    dataset: SyntheticCTRDataset
    checkpoints: CheckpointManager
    checkpoint_dir: str
    steps: int = 0

    @property
    def model(self):
        return self.trainer.model


def setup(seed: int) -> TrainContext:
    model = build_model(seed, warmup_steps=CACHE_WARMUP,
                        refresh_interval=REFRESH_EVERY)
    dataset = SyntheticCTRDataset(SPEC, zipf_s=ZIPF_S, seed=seed,
                                  noise=NOISE)
    trainer = Trainer(model, lr=0.1)
    ckdir = tempfile.mkdtemp(prefix="ckpt-", dir=out_dir())
    ctx = TrainContext(trainer, dataset, CheckpointManager(ckdir, keep=2),
                       ckdir)
    for _ in range(WARMUP_STEPS):
        trainer.train_step(dataset.batch(BATCH_SIZE))
    return ctx


def step(ctx: TrainContext) -> float:
    """One closed-loop step: fetch, train, checkpoint when due."""
    loss = ctx.trainer.train_step(ctx.dataset.batch(BATCH_SIZE))
    ctx.steps += 1
    if ctx.steps % CHECKPOINT_EVERY == 0:
        ctx.checkpoints.save(ctx.steps, ctx.model,
                             optimizer=ctx.trainer.optimizer)
    return loss


def loop(ctx: TrainContext, seconds: float, rec: SpanRecorder | None = None,
         pause=None):
    """Step for ``seconds``; returns ``(step_ms, losses, stepping_s)``.

    With ``pause``, it is called after every :data:`PAUSE_EVERY_S` of
    stepping; the time it takes counts neither as stepping nor in a step.
    """
    step_ms, losses = [], []
    budget, every = int(seconds * 1e9), int(PAUSE_EVERY_S * 1e9)
    stepping = paused_at = 0
    now = perf_counter_ns()
    while stepping < budget or not step_ms:
        if rec is None:
            loss = step(ctx)
        else:
            rec.unit = ctx.steps
            loss = rec.call("bench.step", step, ctx)
        end = perf_counter_ns()
        step_ms.append((end - now) / 1e6)
        losses.append(loss)
        stepping += end - now
        if pause is not None and stepping - paused_at >= every:
            pause()
            paused_at = stepping
            end = perf_counter_ns()
        now = end
    return step_ms, losses, stepping / 1e9


def evaluate(ctx: TrainContext, seed: int):
    held_out = ctx.dataset.clone_stream(seed + 1_000_003)
    return ctx.trainer.evaluate(held_out.batches(BATCH_SIZE, EVAL_BATCHES))


def oracle_failures(losses, auc: float) -> int:
    """Non-finite losses, plus one if the held-out AUC is non-finite or,
    after :data:`AUC_MIN_STEPS` steps, below :data:`AUC_FLOOR`."""
    bad = sum(1 for loss in losses if not math.isfinite(loss))
    floor = AUC_FLOOR if len(losses) >= AUC_MIN_STEPS else 0.0
    return bad + int(not (math.isfinite(auc) and auc >= floor))


def close(ctx: TrainContext) -> None:
    shutil.rmtree(ctx.checkpoint_dir, ignore_errors=True)


def run(ctx: TrainContext, seed: int, seconds: float, trace: bool,
        pause) -> dict:
    layers = {}
    if trace:
        # Untraced third, then wrap every layer and trace the rest.
        base_ms, losses, _ = loop(ctx, seconds / 3)
        rec = SpanRecorder()
        dedup = DedupCounter()
        trace_embeddings(rec, ctx.model.embeddings, dedup)
        trace_training(rec, ctx.trainer, ctx.dataset, ctx.checkpoints)
        lookups0, hits0 = cache_counts(ctx.model)
        step_ms, traced_losses, _ = loop(ctx, 2 * seconds / 3, rec)
        lookups, hits = cache_counts(ctx.model)
        rec.restore()
        losses += traced_losses
        rec.write_jsonl(out_dir() / f"trace-train_tt_zipf-{seed}.jsonl")
        layers = layer_report(rec.spans, len(step_ms))
        layers["cache.hit_ratio"] = ((hits - hits0) / (lookups - lookups0)
                                     if lookups > lookups0 else 0.0)
        layers["tt.dedup_ratio"] = dedup.ratio
        layers["trace.overhead_pct"] = 100.0 * (
            median(step_ms) / median(base_ms) - 1.0)
        wall_s = None
    else:
        step_ms, losses, wall_s = loop(ctx, seconds, pause=pause)
    ev = evaluate(ctx, seed)
    failed = oracle_failures(losses, ev.auc)
    layers["training.eval_auc"] = ev.auc
    layers["model.embedding_bytes"] = embedding_bytes(ctx.model)
    summary = {
        "steps": len(step_ms),
        "train.step_p50_ms": median(step_ms),
        "train.step_p90_ms": percentile(step_ms, 90),
        "train.step_top3pct_ms_windowed": windowed_top_mean(
            step_ms, TAIL_SHARE, TAIL_WINDOW),
        "train.eval_auc": ev.auc,
        "model_bytes": embedding_bytes(ctx.model),
    }
    e2e = {}
    if wall_s is not None:
        e2e = {
            "throughput_per_s": len(step_ms) * BATCH_SIZE / wall_s,
            "p50_ms": summary["train.step_p50_ms"],
            "tail_ms": summary["train.step_top3pct_ms_windowed"],
        }
        summary["train.samples_per_s"] = e2e["throughput_per_s"]
    return {
        "attempted": len(losses) + 1,  # every step, plus the evaluation
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "summary": summary,
    }
