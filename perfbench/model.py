"""The one model configuration every model workload shares.

``KAGGLE.scaled(0.01)`` tables, embedding dim 16, bottom MLP (64, 16),
top MLP (64,), and the 7 largest tables TT-compressed at rank 32 behind
an LFU cache holding 1% of each table's rows.
"""

from __future__ import annotations

from repro.data import KAGGLE
from repro.models import DLRMConfig, TTConfig, build_ttrec

SPEC = KAGGLE.scaled(0.01)
EMB_DIM = 16
BOTTOM_MLP = (64, 16)
TOP_MLP = (64,)
NUM_TT_TABLES = 7
TT_RANK = 32
CACHE_FRACTION = 0.01
# Smallest of the 7 largest scaled tables has ~1.4k rows; the library's
# default floor (10k rows) would leave it dense.
MIN_TT_ROWS = 60


def build_model(seed: int, *, warmup_steps: int,
                refresh_interval: int | None):
    """The benchmark's TT-Rec model, cache schedule as given."""
    cfg = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=EMB_DIM,
                     bottom_mlp=BOTTOM_MLP, top_mlp=TOP_MLP)
    tt = TTConfig(rank=TT_RANK, use_cache=True,
                  cache_fraction=CACHE_FRACTION,
                  warmup_steps=warmup_steps,
                  refresh_interval=refresh_interval)
    return build_ttrec(cfg, num_tt_tables=NUM_TT_TABLES, tt=tt,
                       min_rows=MIN_TT_ROWS, rng=seed)


def cached_tables(model) -> list:
    return [emb for emb in model.embeddings if hasattr(emb, "tracker")]


def embedding_bytes(model) -> int:
    """Bytes held by the embedding operators (TT cores, cache, dense)."""
    return int(sum(p.data.nbytes for emb in model.embeddings
                   for p in emb.parameters()))


def cache_counts(model) -> tuple[int, int]:
    """``(lookups, hits)`` summed over the cached tables' counters."""
    lookups = hits = 0
    for emb in cached_tables(model):
        stats = emb.stats()
        lookups += stats["lookups"]
        hits += stats["hits"]
    return lookups, hits

