"""Which public method belongs to which layer, and the per-layer report.

Each ``trace_*`` function shadows the public methods behind one row of
the layer table in ``README.md`` with spans named after the layer. Span
names double as metric stems: the per-layer metric ``cache.fwd_ms`` is
the self time of all ``cache.fwd`` spans per unit of work.

Wrap embedding operators *before* a router is built: its shards
capture bound ``lookup`` methods when they construct their degradation
ladders.
"""

from __future__ import annotations

import functools

from .spans import SpanRecorder, self_times

# Spans the benchmark itself opens around each unit of work; their self
# time is what no named layer accounts for.
ROOT_PREFIX = "bench."

# Per-unit self-time metrics, in report order: metric name -> span name.
TIME_METRICS = {
    "cache.fwd_ms": "cache.fwd",
    "cache.bwd_ms": "cache.bwd",
    "cache.populate_ms": "cache.populate",
    "tt.plan_ms": "tt.plan",
    "tt.execute_ms": "tt.execute",
    "ops.embedding.fwd_ms": "ops.embedding.fwd",
    "ops.embedding.bwd_ms": "ops.embedding.bwd",
    "ops.mlp.fwd_ms": "ops.mlp.fwd",
    "ops.mlp.bwd_ms": "ops.mlp.bwd",
    "ops.interaction.fwd_ms": "ops.interaction.fwd",
    "ops.interaction.bwd_ms": "ops.interaction.bwd",
    "ops.loss_ms": "ops.loss",
    "ops.optim.step_ms": "ops.optim.step",
    "models.self_ms": "models",
    "data.batch_ms": "data.batch",
    "reliability.checkpoint_ms": "reliability.checkpoint",
    "training.self_ms": "training",
    "serving.admission_ms": "serving.admission",
    "serving.queue_ms": "serving.queue",
    "serving.ladder_ms": "serving.ladder",
    "serving.self_ms": "serving",
    "inference.towers_ms": "inference.towers",
    "sharding.dispatch_ms": "sharding.dispatch",
    "sharding.self_ms": "sharding",
    "sharding.tick_ms": "sharding.tick",
    "lint.graph_build_ms": "lint.graph_build",
    "lint.parse_ms": "lint.parse",
    "lint.rules_ms": "lint.rules",
    **{f"lint.pass.XMOD00{k}_ms": f"lint.pass.XMOD00{k}"
       for k in range(1, 6)},
}


class DedupCounter:
    """Ids planned vs. unique rows contracted, counted at ``plan_batch``."""

    def __init__(self):
        self.ids = 0
        self.unique = 0

    def counting(self, plan_batch):
        """``plan_batch`` wrapped to count each plan's ids."""
        @functools.wraps(plan_batch)
        def wrapper(*args, **kwargs):
            plan = plan_batch(*args, **kwargs)
            self.ids += plan.n
            self.unique += plan.n_unique
            return plan
        return wrapper

    @property
    def ratio(self) -> float:
        """Share of planned ids removed as duplicates."""
        return 1.0 - self.unique / self.ids if self.ids else 0.0


def trace_embeddings(rec: SpanRecorder, embeddings,
                     dedup: DedupCounter) -> None:
    """Cached-TT tables -> ``cache.*``/``tt.*``; dense tables -> ``ops``."""
    for emb in embeddings:
        if hasattr(emb, "tracker"):
            rec.wrap(emb, "forward", "cache.fwd")
            rec.wrap(emb, "lookup", "cache.fwd")
            rec.wrap(emb, "backward", "cache.bwd")
            rec.wrap(emb, "populate", "cache.populate")
            planner = emb.tt.planner
            rec.shadow(planner, "plan_batch", dedup.counting)
            rec.wrap(planner, "plan_batch", "tt.plan")
            rec.wrap(planner, "execute", "tt.execute")
        else:
            rec.wrap(emb, "forward", "ops.embedding.fwd")
            rec.wrap(emb, "lookup", "ops.embedding.fwd")
            rec.wrap(emb, "backward", "ops.embedding.bwd")


def trace_training(rec: SpanRecorder, trainer, dataset, checkpoints) -> None:
    """The train step: data, trainer, DLRM glue, towers, loss, optimizer."""
    import repro.training.trainer as trainer_module

    model = trainer.model
    rec.wrap(dataset, "batch", "data.batch")
    rec.wrap(trainer, "train_step", "training")
    rec.wrap(model, "forward", "models")
    rec.wrap(model, "backward", "models")
    for mlp in (model.bottom_mlp, model.top_mlp):
        rec.wrap(mlp, "forward", "ops.mlp.fwd")
        rec.wrap(mlp, "backward", "ops.mlp.bwd")
    rec.wrap(model.interaction, "forward", "ops.interaction.fwd")
    rec.wrap(model.interaction, "backward", "ops.interaction.bwd")
    # The trainer calls the loss as a module-level function.
    rec.wrap(trainer_module, "bce_with_logits", "ops.loss")
    rec.wrap(trainer.optimizer, "step", "ops.optim.step")
    rec.wrap(checkpoints, "save", "reliability.checkpoint")


def trace_router(rec: SpanRecorder, router) -> None:
    """Admission, queue, fan-out, control plane and towers of a router."""
    rec.wrap(router.sanitizer, "sanitize", "serving.admission")
    rec.wrap(router.queue, "submit", "serving.queue")
    rec.wrap(router.queue, "next_batch", "serving.queue")
    rec.wrap(router.predictor, "logits_from_pooled", "inference.towers")
    rec.wrap(router, "submit", "serving")
    rec.wrap(router, "step", "sharding")
    rec.wrap(router, "tick", "sharding.tick")
    for worker in router.workers:
        rec.wrap(worker, "dispatch", "sharding.dispatch")
        for ladder in worker.ladders.values():
            rec.wrap(ladder, "serve", "serving.ladder")


def layer_report(spans, units: int) -> dict[str, float]:
    """Per-unit self time of every layer, plus the unattributed remainder.

    Returns every :data:`TIME_METRICS` entry (0 for layers the run did
    not touch), ``unattributed_ms`` (root-span self time per unit),
    ``unattributed_pct`` (its share of root wall time) and
    ``trace.wall_ms`` (root wall time per unit). The named layers plus
    ``unattributed_ms`` add up to ``trace.wall_ms``.
    """
    totals, root_ns = self_times(spans)
    per_unit = 1e6 * max(units, 1)
    out = {metric: totals.get(span, 0) / per_unit
           for metric, span in TIME_METRICS.items()}
    unattributed = sum(ns for name, ns in totals.items()
                       if name.startswith(ROOT_PREFIX))
    named = set(TIME_METRICS.values())
    stray = [name for name in totals
             if name not in named and not name.startswith(ROOT_PREFIX)]
    if stray:
        raise ValueError(f"spans without a layer metric: {sorted(stray)}")
    out["unattributed_ms"] = unattributed / per_unit
    out["unattributed_pct"] = 100.0 * unattributed / root_ns if root_ns else 0.0
    out["trace.wall_ms"] = root_ns / per_unit
    return out
