"""Two-factor low-rank embedding (Ghaemmaghami et al. 2020 style).

``W ~= A @ B`` with ``A: (num_rows, r)`` and ``B: (r, dim)``. A lookup is
one small gather plus a ``(bag, r) @ (r, dim)`` GEMM, and the parameter
count is ``num_rows*r + r*dim`` — so unlike TT, compression is capped at
``dim / r`` and cannot reach the orders of magnitude TT offers at equal
rank. The baseline bench shows exactly that ceiling.
"""

from __future__ import annotations

import numpy as np

from repro.ops.compressed import (
    CompressedEmbedding,
    EmbeddingSpec,
    _check_known_params,
)
from repro.ops.embedding import segment_sum
from repro.ops.module import Parameter
from repro.tt.kernels import scatter_add_rows
from repro.utils.dtypes import default_dtype, result_dtype
from repro.utils.seeding import as_rng
from repro.utils.validation import check_csr

__all__ = ["LowRankEmbeddingBag"]


class LowRankEmbeddingBag(CompressedEmbedding):
    """Pooled embedding lookup through a rank-``r`` factorization — kind
    ``"lowrank"``."""

    kind = "lowrank"

    def __init__(self, num_rows: int, dim: int, rank: int, *, mode: str = "sum",
                 rng: int | None | np.random.Generator = None,
                 name: str = "lowrank_emb"):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if rank > dim:
            raise ValueError(
                f"rank ({rank}) above dim ({dim}) stores more than the dense table"
            )
        super().__init__(EmbeddingSpec("lowrank", num_rows, dim, mode=mode,
                                       name=name, params={"rank": rank}))
        rng = as_rng(rng)
        self.rank = rank
        # Scale so W = A @ B matches the DLRM default Uniform(±1/sqrt(M))
        # variance: Var(W_ij) = rank * var_a * var_b = 1/(3M).
        entry_std = (1.0 / (3.0 * num_rows * rank)) ** 0.25
        self.factor_a = Parameter(
            rng.normal(0.0, entry_std, size=(num_rows, rank)),
            name=f"{name}.A", sparse=True,
        )
        self.factor_b = Parameter(
            rng.normal(0.0, entry_std, size=(rank, dim)), name=f"{name}.B"
        )
        self._cache: dict | None = None

    @classmethod
    def from_spec(cls, spec: EmbeddingSpec) -> "LowRankEmbeddingBag":
        """Knob: ``rank`` (default 2)."""
        _check_known_params(spec, {"rank"})
        return cls(spec.num_rows, spec.dim, rank=int(spec.get("rank", 2)),
                   mode=spec.mode, rng=spec.seed,
                   name=spec.name or "lowrank_emb")

    @classmethod
    def predict_memory_bytes(cls, spec: EmbeddingSpec) -> int:
        rank = int(spec.get("rank", 2))
        params = spec.num_rows * rank + rank * spec.dim
        return params * default_dtype().itemsize

    def _forward_impl(self, indices, offsets, per_sample_weights) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if offsets is None:
            offsets = np.arange(indices.size + 1, dtype=np.int64)
        indices, offsets = check_csr(indices, offsets, self.num_rows)
        alpha = None
        if per_sample_weights is not None:
            alpha = np.asarray(per_sample_weights,
                               dtype=result_dtype(self.factor_a.data)).reshape(-1)
            if alpha.shape[0] != indices.shape[0]:
                raise ValueError("per_sample_weights must match indices in length")
        a_rows = self.factor_a.data[indices]  # (n, r)
        weighted = a_rows if alpha is None else a_rows * alpha[:, None]
        # Pool in factor space first (r << dim), then one GEMM per batch.
        pooled_a = segment_sum(weighted, offsets)  # (m, r)
        counts = np.diff(offsets)
        if self.mode == "mean":
            scale = np.asarray(np.where(counts > 0, counts, 1),
                               dtype=pooled_a.dtype)
            pooled_a = pooled_a / scale[:, None]
        out = pooled_a @ self.factor_b.data
        self._cache = {
            "indices": indices, "offsets": offsets, "alpha": alpha,
            "counts": counts, "pooled_a": pooled_a,
        }
        return out

    def _backward_impl(self, grad_out) -> None:
        """Accumulate factor gradients; consumes the forward cache."""
        c = self._cache
        grad_out = np.asarray(grad_out, dtype=self.dtype)
        # dB = pooled_a^T dO
        self.factor_b.grad += c["pooled_a"].T @ grad_out
        # d pooled_a = dO B^T, then un-pool to per-index gradients.
        grad_pooled = grad_out @ self.factor_b.data.T  # (m, r)
        counts = c["counts"]
        if self.mode == "mean":
            scale = np.asarray(np.where(counts > 0, counts, 1),
                               dtype=grad_pooled.dtype)
            grad_pooled = grad_pooled / scale[:, None]
        bag_ids = np.repeat(np.arange(len(counts)), counts)
        grad_rows = grad_pooled[bag_ids]
        if c["alpha"] is not None:
            grad_rows = grad_rows * c["alpha"][:, None]
        scatter_add_rows(self.factor_a.grad, c["indices"], grad_rows)
        self.factor_a.record_touched(c["indices"])
        self._cache = None

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        return self.factor_a.data[indices] @ self.factor_b.data

    def materialize(self) -> np.ndarray:
        """Dense ``num_rows x dim`` table (analysis only)."""
        return self.factor_a.data @ self.factor_b.data
