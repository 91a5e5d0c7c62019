"""Post-training row-wise uniform quantization (Guan et al. 2019).

Compresses a *trained* dense table to ``bits``-wide integer codes with a
per-row scale and zero-point — the 4-bit scheme the paper's Related Work
cites as the quantization approach for recommendation inference. Like the
original, this operator is inference-only: ``backward`` raises, because
training through a quantizer needs STE machinery the cited work does not
use for embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.ops.compressed import (
    CompressedEmbedding,
    EmbeddingSpec,
    _check_known_params,
)
from repro.ops.embedding import EmbeddingBag, segment_sum
from repro.utils.dtypes import default_dtype, result_dtype
from repro.utils.validation import check_csr

__all__ = ["quantize_rows", "dequantize_rows", "QuantizedEmbeddingBag"]


def quantize_rows(table: np.ndarray, bits: int = 4
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise affine quantization: ``codes, scales, zero_points``.

    Each row is mapped to ``round((x - min) / scale)`` with
    ``scale = (max - min) / (2^bits - 1)``; constant rows get scale 0 and
    decode exactly.
    """
    if not (1 <= bits <= 16):
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    table = np.asarray(table)
    # Preserve the table's floating dtype; fall back to the policy dtype
    # for integer input (repro.utils.dtypes).
    table = np.asarray(table, dtype=result_dtype(table))
    if table.ndim != 2:
        raise ValueError(f"table must be 2-D, got shape {table.shape}")
    levels = (1 << bits) - 1
    mins = table.min(axis=1)
    maxs = table.max(axis=1)
    scales = (maxs - mins) / levels
    safe = np.where(scales > 0, scales, 1.0)
    codes = np.rint((table - mins[:, None]) / safe[:, None])
    codes = np.clip(codes, 0, levels)
    dtype = np.uint8 if bits <= 8 else np.uint16
    return codes.astype(dtype), scales, mins


def dequantize_rows(codes: np.ndarray, scales: np.ndarray,
                    zero_points: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_rows` (up to quantization error)."""
    dt = result_dtype(scales, zero_points)
    return codes.astype(dt) * scales[:, None] + zero_points[:, None]


class QuantizedEmbeddingBag(CompressedEmbedding):
    """Inference-only EmbeddingBag over a quantized table — kind ``"quant"``.

    Construct from a trained dense table (``from_dense``) — matching the
    post-training workflow of the cited scheme.
    """

    kind = "quant"
    supports_gradient = False

    def __init__(self, codes: np.ndarray, scales: np.ndarray,
                 zero_points: np.ndarray, bits: int, *, mode: str = "sum"):
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got {codes.shape}")
        if scales.shape != (codes.shape[0],) or zero_points.shape != (codes.shape[0],):
            raise ValueError("scales/zero_points must be per-row vectors")
        super().__init__(EmbeddingSpec("quant", *codes.shape, mode=mode,
                                       params={"bits": bits}))
        dt = result_dtype(np.asarray(scales), np.asarray(zero_points))
        self.codes = codes
        self.scales = np.asarray(scales, dtype=dt)
        self.zero_points = np.asarray(zero_points, dtype=dt)
        self.bits = bits

    @classmethod
    def from_dense(cls, table: np.ndarray, *, bits: int = 4,
                   mode: str = "sum") -> "QuantizedEmbeddingBag":
        codes, scales, zero_points = quantize_rows(table, bits)
        return cls(codes, scales, zero_points, bits, mode=mode)

    @classmethod
    def from_spec(cls, spec: EmbeddingSpec) -> "QuantizedEmbeddingBag":
        """Knob: ``bits`` (default 4). Quantizes a *fresh* dense table —
        only meaningful for memory/latency benchmarking, never for
        accuracy; quantize a trained table with :meth:`from_dense`."""
        _check_known_params(spec, {"bits"})
        table = EmbeddingBag(spec.num_rows, spec.dim, rng=spec.seed).weight.data
        return cls.from_dense(table, bits=int(spec.get("bits", 4)),
                              mode=spec.mode)

    @classmethod
    def predict_memory_bytes(cls, spec: EmbeddingSpec) -> int:
        bits = int(spec.get("bits", 4))
        code_itemsize = 1 if bits <= 8 else 2
        codes = spec.num_rows * spec.dim * code_itemsize
        side = 2 * spec.num_rows * default_dtype().itemsize
        return codes + side

    @property
    def dtype(self) -> np.dtype:
        return self.scales.dtype

    def _extra_arrays(self) -> list[np.ndarray]:
        return [self.codes, self.scales, self.zero_points]

    def extra_state(self) -> dict[str, np.ndarray]:
        return {"codes": self.codes, "scales": self.scales,
                "zero_points": self.zero_points}

    def load_extra_state(self, state: dict[str, np.ndarray]) -> None:
        self.codes = np.asarray(state["codes"], dtype=self.codes.dtype)
        self.scales = np.asarray(state["scales"], dtype=self.scales.dtype)
        self.zero_points = np.asarray(state["zero_points"],
                                      dtype=self.zero_points.dtype)

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        return dequantize_rows(
            self.codes[indices], self.scales[indices], self.zero_points[indices]
        )

    def _forward_impl(self, indices, offsets, per_sample_weights) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if offsets is None:
            offsets = np.arange(indices.size + 1, dtype=np.int64)
        indices, offsets = check_csr(indices, offsets, self.num_rows)
        rows = self.lookup(indices)
        if per_sample_weights is not None:
            alpha = np.asarray(per_sample_weights, dtype=rows.dtype).reshape(-1)
            if alpha.shape[0] != indices.shape[0]:
                raise ValueError("per_sample_weights must match indices in length")
            rows = rows * alpha[:, None]
        out = segment_sum(rows, offsets)
        if self.mode == "mean":
            counts = np.diff(offsets)
            scale = np.asarray(np.where(counts > 0, counts, 1), dtype=out.dtype)
            out = out / scale[:, None]
        return out

    def num_parameters(self) -> int:
        """Effective fp32-equivalent parameter count (for fair comparison).

        Codes cost ``bits/32`` of a float each; scales and zero-points cost
        one float per row apiece.
        """
        code_floats = self.codes.size * self.bits / 32.0
        return int(np.ceil(code_floats + 2 * self.num_rows))

    def compression_ratio(self) -> float:
        return (self.num_rows * self.dim) / self.num_parameters()

    def reconstruction_error(self, table: np.ndarray) -> float:
        """Max |dequantized - original| against the source dense table."""
        table = np.asarray(table, dtype=self.scales.dtype)
        approx = dequantize_rows(self.codes, self.scales, self.zero_points)
        return float(np.abs(approx - table).max())
