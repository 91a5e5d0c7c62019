"""Byte-budget planner: pick a compressor per table under a global cap.

Given per-table row/dim/traffic stats and one byte budget for the whole
embedding stack, :class:`BudgetPlanner` chooses a compressor (and its
rank / codebook / bucket knobs) for every table:

1. build a candidate ladder per table — every registered compressor at a
   few knob settings, costed with ``predict_memory_bytes`` (exact, no
   build) and scored with a quality proxy that rises monotonically with
   bytes kept (``fidelity * (bytes / dense_bytes) ** 0.25``; dense is
   exactly 1.0);
2. binary-search the highest quality floor ``t`` such that picking the
   cheapest candidate of quality >= ``t`` for every table fits the
   budget (the same search-over-a-monotone-knob shape as the TT rank
   search in the literature);
3. spend the leftover bytes greedily, upgrading whichever table buys the
   most ``quality * weight`` per byte — where ``weight = traffic * (1 -
   Zipf top-mass)`` from :mod:`repro.data.zipf`, so tables whose traffic
   a hot-row cache would absorb anyway are compressed first and
   flat-access tables keep their bytes.

Measured accuracy from the Fig. 1 design-space sweep
(:func:`repro.analysis.design_space.sweep_design_space`) can replace the
TT fidelity prior via ``measured=`` for an accuracy-per-byte tie-break.

The result serializes as a ``repro.budget_plan/v1`` document consumed by
``repro.models.ttrec.build_from_plan`` and the serving tier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.compress.base import predict_memory_bytes
from repro.data.zipf import ZipfSampler
from repro.ops.compressed import EmbeddingSpec
from repro.utils.dtypes import default_dtype

__all__ = [
    "BUDGET_PLAN_SCHEMA",
    "TableStats",
    "PlannedTable",
    "BudgetPlan",
    "BudgetPlanner",
    "load_budget_plan",
]

BUDGET_PLAN_SCHEMA = "repro.budget_plan/v1"

#: Accuracy prior per family at equal bytes (dense pinned to 1.0).
#: TT leads per the paper's Fig. 1; hashing collides hardest.
_FIDELITY = {
    "dense": 1.0, "tt": 1.0, "cached_tt": 1.0, "tr": 0.97, "alpt": 0.95,
    "dpq": 0.92, "lowrank": 0.90, "quant": 0.90, "hash": 0.85,
}

#: Hot-row fraction used for the skew weight — the paper's cache default.
_CACHE_FRACTION = 1e-4


@dataclass(frozen=True)
class TableStats:
    """What the planner needs to know about one table."""

    num_rows: int
    dim: int
    zipf_s: float = 1.05       # access skew (data/zipf.py convention)
    traffic: float = 1.0       # relative lookup share of this table
    name: str | None = None

    def __post_init__(self):
        if self.num_rows <= 0 or self.dim <= 0:
            raise ValueError(
                f"num_rows and dim must be positive, got {self.num_rows}, {self.dim}"
            )
        if self.traffic < 0:
            raise ValueError(f"traffic must be >= 0, got {self.traffic}")

    def dense_bytes(self) -> int:
        return self.num_rows * self.dim * default_dtype().itemsize

    def to_doc(self) -> dict:
        return {"num_rows": int(self.num_rows), "dim": int(self.dim),
                "zipf_s": float(self.zipf_s), "traffic": float(self.traffic),
                "name": self.name}

    @classmethod
    def from_doc(cls, doc: dict) -> "TableStats":
        return cls(num_rows=int(doc["num_rows"]), dim=int(doc["dim"]),
                   zipf_s=float(doc.get("zipf_s", 1.05)),
                   traffic=float(doc.get("traffic", 1.0)),
                   name=doc.get("name"))


@dataclass(frozen=True)
class PlannedTable:
    """One table's final choice."""

    index: int
    spec: EmbeddingSpec
    predicted_bytes: int
    quality: float
    weight: float

    def to_doc(self) -> dict:
        return {"index": int(self.index), "spec": self.spec.to_doc(),
                "predicted_bytes": int(self.predicted_bytes),
                "quality": float(self.quality), "weight": float(self.weight)}

    @classmethod
    def from_doc(cls, doc: dict) -> "PlannedTable":
        return cls(index=int(doc["index"]),
                   spec=EmbeddingSpec.from_doc(doc["spec"]),
                   predicted_bytes=int(doc["predicted_bytes"]),
                   quality=float(doc["quality"]),
                   weight=float(doc["weight"]))


@dataclass
class BudgetPlan:
    """A planner run: budget, per-table choices, bookkeeping."""

    budget_bytes: int
    tables: list[PlannedTable] = field(default_factory=list)
    mode: str = "sum"
    seed: int = 0

    def total_bytes(self) -> int:
        return sum(t.predicted_bytes for t in self.tables)

    def dense_total_bytes(self) -> int:
        itemsize = default_dtype().itemsize
        return sum(t.spec.num_rows * t.spec.dim * itemsize
                   for t in self.tables)

    def compression_ratio(self) -> float:
        return self.dense_total_bytes() / max(1, self.total_bytes())

    def kinds(self) -> list[str]:
        return [t.spec.kind for t in self.tables]

    def to_doc(self) -> dict:
        return {
            "schema": BUDGET_PLAN_SCHEMA,
            "budget_bytes": int(self.budget_bytes),
            "total_bytes": int(self.total_bytes()),
            "dense_total_bytes": int(self.dense_total_bytes()),
            "mode": self.mode,
            "seed": int(self.seed),
            "tables": [t.to_doc() for t in self.tables],
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_doc(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_doc(cls, doc: dict) -> "BudgetPlan":
        plan = cls(budget_bytes=int(doc["budget_bytes"]),
                   tables=[PlannedTable.from_doc(t) for t in doc["tables"]],
                   mode=doc.get("mode", "sum"), seed=int(doc.get("seed", 0)))
        if plan.total_bytes() > plan.budget_bytes:
            raise ValueError(
                f"plan is over budget: {plan.total_bytes()} > {plan.budget_bytes}"
            )
        return plan


def load_budget_plan(path) -> BudgetPlan:
    """Read and validate a ``repro.budget_plan/v1`` document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != BUDGET_PLAN_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BUDGET_PLAN_SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    return BudgetPlan.from_doc(doc)


# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Candidate:
    spec: EmbeddingSpec
    bytes: int
    quality: float


class BudgetPlanner:
    """Choose compressor + knobs per table under a global byte budget."""

    #: knob ladders swept per family
    TT_RANKS = (2, 4, 8, 16, 32)
    TR_RANKS = (2, 4, 8)
    LOWRANK_RANKS = (1, 2, 4, 8, 16)
    HASH_DIVISORS = (64, 16, 4)
    DPQ_SUBSPACES = (2, 4, 8)
    ALPT_BITS = (8, 16)
    QUANT_BITS = (4, 8)

    def __init__(self, tables: list[TableStats], *, mode: str = "sum",
                 seed: int = 0, include_inference_only: bool = False,
                 min_compress_rows: int = 0, measured=None):
        if not tables:
            raise ValueError("planner needs at least one table")
        self.tables = list(tables)
        self.mode = mode
        self.seed = seed
        self.include_inference_only = include_inference_only
        self.min_compress_rows = min_compress_rows
        # Measured Fig. 1 design points (rank -> validation accuracy)
        # replace the TT fidelity prior when provided.
        self._tt_accuracy: dict[int, float] = {}
        if measured:
            best = max(p.accuracy for p in measured)
            if best > 0:
                for p in measured:
                    acc = p.accuracy / best
                    cur = self._tt_accuracy.get(p.rank)
                    self._tt_accuracy[p.rank] = acc if cur is None else max(cur, acc)

    # ------------------------------------------------------------------ #
    # Candidate ladders
    # ------------------------------------------------------------------ #

    def _quality(self, kind: str, nbytes: int, dense_bytes: int,
                 rank: int | None = None) -> float:
        if nbytes >= dense_bytes:
            return _FIDELITY[kind]
        fidelity = _FIDELITY[kind]
        if kind in ("tt", "cached_tt") and rank is not None:
            fidelity *= self._tt_accuracy.get(rank, 1.0)
        return fidelity * (nbytes / dense_bytes) ** 0.25

    def _candidates(self, i: int, stats: TableStats) -> list[_Candidate]:
        dense_bytes = stats.dense_bytes()
        name = stats.name or f"table{i}"
        out: list[_Candidate] = []

        def add(kind: str, params: dict, rank: int | None = None) -> None:
            spec = EmbeddingSpec(kind=kind, num_rows=stats.num_rows,
                                 dim=stats.dim, mode=self.mode,
                                 seed=self.seed + i, name=name, params=params)
            nbytes = predict_memory_bytes(spec)
            if kind != "dense" and nbytes >= dense_bytes:
                return  # pointless: costs at least as much as dense
            out.append(_Candidate(spec, nbytes,
                                  self._quality(kind, nbytes, dense_bytes,
                                                rank)))

        add("dense", {})
        if stats.num_rows < self.min_compress_rows:
            return out
        for rank in self.TT_RANKS:
            add("tt", {"rank": rank}, rank)
            add("cached_tt", {"rank": rank}, rank)
        for rank in self.TR_RANKS:
            add("tr", {"rank": rank})
        for rank in self.LOWRANK_RANKS:
            if rank <= stats.dim:
                add("lowrank", {"rank": rank})
        for div in self.HASH_DIVISORS:
            buckets = max(1, stats.num_rows // div)
            if buckets < stats.num_rows:
                add("hash", {"num_buckets": buckets})
        for sub in self.DPQ_SUBSPACES:
            if sub <= stats.dim and stats.dim % sub == 0:
                add("dpq", {"num_subspaces": sub, "codebook_size": 256})
        for bits in self.ALPT_BITS:
            add("alpt", {"bits": bits})
        if self.include_inference_only:
            for bits in self.QUANT_BITS:
                add("quant", {"bits": bits})
        return out

    def _weight(self, stats: TableStats) -> float:
        """Upgrade priority: traffic a hot-row cache could *not* absorb."""
        sampler = ZipfSampler(stats.num_rows, stats.zipf_s, permute=False,
                              rng=0)
        k = max(1, int(round(stats.num_rows * _CACHE_FRACTION)))
        return stats.traffic * (1.0 - sampler.top_k_mass(k))

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def plan(self, budget_bytes: int) -> BudgetPlan:
        """Pick one candidate per table with total predicted bytes <= budget."""
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        ladders = [self._candidates(i, t) for i, t in enumerate(self.tables)]
        weights = [self._weight(t) for t in self.tables]

        floor_cost = sum(min(c.bytes for c in ladder) for ladder in ladders)
        if floor_cost > budget_bytes:
            raise ValueError(
                f"budget {budget_bytes} B is below the cheapest possible plan "
                f"({floor_cost} B across {len(ladders)} tables)"
            )

        def pick(threshold: float) -> list[_Candidate]:
            chosen = []
            for ladder in ladders:
                ok = [c for c in ladder if c.quality >= threshold]
                pool = ok if ok else ladder
                chosen.append(min(pool, key=lambda c: (c.bytes, -c.quality)))
            return chosen

        # Binary search the highest uniform quality floor that still fits.
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if sum(c.bytes for c in pick(mid)) <= budget_bytes:
                lo = mid
            else:
                hi = mid
        chosen = pick(lo)
        total = sum(c.bytes for c in chosen)
        if total > budget_bytes:  # numerical edge: fall back to the floor
            chosen = pick(0.0)
            total = sum(c.bytes for c in chosen)

        # Greedy: spend leftover bytes where quality-per-byte, scaled by
        # the table's skew weight, is highest.
        while True:
            best = None
            for i, ladder in enumerate(ladders):
                cur = chosen[i]
                for cand in ladder:
                    extra = cand.bytes - cur.bytes
                    gain = cand.quality - cur.quality
                    if gain <= 0 or total + extra > budget_bytes:
                        continue
                    score = gain * max(weights[i], 1e-9) / max(extra, 1)
                    if best is None or score > best[0]:
                        best = (score, i, cand)
            if best is None:
                break
            _, i, cand = best
            total += cand.bytes - chosen[i].bytes
            chosen[i] = cand

        planned = [
            PlannedTable(index=i, spec=c.spec, predicted_bytes=c.bytes,
                         quality=c.quality, weight=weights[i])
            for i, c in enumerate(chosen)
        ]
        return BudgetPlan(budget_bytes=int(budget_bytes), tables=planned,
                          mode=self.mode, seed=self.seed)
