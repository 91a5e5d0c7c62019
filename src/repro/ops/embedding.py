"""Dense EmbeddingBag — the uncompressed DLRM baseline.

Mirrors ``torch.nn.EmbeddingBag``: a table of ``num_rows x dim`` weights,
queried with CSR-style ``(indices, offsets)`` bags, pooled by sum or mean,
with optional per-sample weights (the alpha_i of paper Eq. 6).
"""

from __future__ import annotations

import numpy as np

from repro.ops.compressed import (
    CompressedEmbedding,
    EmbeddingSpec,
    _check_known_params,
)
from repro.ops.module import Parameter
from repro.utils.dtypes import default_dtype
from repro.utils.seeding import as_rng
from repro.utils.validation import check_1d_int_array, check_csr

__all__ = ["EmbeddingBag", "segment_sum"]


def segment_sum(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum contiguous row segments delimited by ``offsets``.

    ``rows`` has shape ``(n, d)``; ``offsets`` has shape ``(m+1,)`` with
    ``offsets[0] == 0`` and ``offsets[-1] == n``. Returns ``(m, d)``.
    Empty segments produce zero rows. Implemented via an exclusive prefix
    sum so the whole reduction is a single vectorized subtraction.
    """
    n, d = rows.shape
    cs = np.empty((n + 1, d), dtype=rows.dtype)
    cs[0] = 0.0
    np.cumsum(rows, axis=0, out=cs[1:])
    return cs[offsets[1:]] - cs[offsets[:-1]]


class EmbeddingBag(CompressedEmbedding):
    """Uncompressed embedding table with bag pooling — kind ``"dense"``,
    the zoo's reference point (ratio 1.0).

    Parameters
    ----------
    num_rows, dim:
        Table shape.
    mode:
        ``"sum"`` or ``"mean"`` pooling across each bag.
    initializer:
        Callable ``(rng, shape) -> np.ndarray`` or ``None`` for the DLRM
        default ``Uniform(-1/sqrt(num_rows), 1/sqrt(num_rows))``.

    Note: DLRM initializes embedding tables with ``Uniform(±1/sqrt(M))``
    where ``M`` is the *row count*; Table 1 of the paper sweeps Gaussian
    alternatives parameterized by the same ``n``.
    """

    kind = "dense"

    def __init__(self, num_rows: int, dim: int, *, mode: str = "sum",
                 initializer=None, rng: int | None | np.random.Generator = None,
                 name: str = "emb"):
        super().__init__(EmbeddingSpec("dense", num_rows, dim, mode=mode,
                                       name=name))
        rng = as_rng(rng)
        if initializer is None:
            bound = 1.0 / np.sqrt(num_rows)
            data = rng.uniform(-bound, bound, size=(num_rows, dim))
        else:
            data = initializer(rng, (num_rows, dim))
        self.weight = Parameter(data, name=f"{name}.weight", sparse=True)
        self._cache: tuple | None = None

    @classmethod
    def from_spec(cls, spec: EmbeddingSpec) -> "EmbeddingBag":
        _check_known_params(spec, set())
        return cls(spec.num_rows, spec.dim, mode=spec.mode, rng=spec.seed,
                   name=spec.name or "dense_emb")

    @classmethod
    def predict_memory_bytes(cls, spec: EmbeddingSpec) -> int:
        return spec.num_rows * spec.dim * default_dtype().itemsize

    def _forward_impl(self, indices, offsets, per_sample_weights) -> np.ndarray:
        indices = np.asarray(indices)
        if offsets is None:
            offsets = np.arange(indices.size + 1, dtype=np.int64)
        indices, offsets = check_csr(indices, offsets, self.num_rows)
        rows = self.weight.data[indices]
        if per_sample_weights is not None:
            alpha = np.asarray(per_sample_weights, dtype=rows.dtype).reshape(-1)
            if alpha.shape[0] != indices.shape[0]:
                raise ValueError(
                    f"per_sample_weights length {alpha.shape[0]} != "
                    f"len(indices) {indices.shape[0]}"
                )
            rows = rows * alpha[:, None]
        else:
            alpha = None
        out = segment_sum(rows, offsets)
        counts = np.diff(offsets)
        if self.mode == "mean":
            scale = np.asarray(np.where(counts > 0, counts, 1), dtype=out.dtype)
            out = out / scale[:, None]
        self._cache = (indices, offsets, alpha, counts)
        return out

    def _backward_impl(self, grad_out) -> None:
        """Accumulate grads into ``weight.grad``; bags carry no input grad."""
        indices, offsets, alpha, counts = self._cache
        grad_out = np.asarray(grad_out, dtype=self.weight.data.dtype)
        if self.mode == "mean":
            scale = np.asarray(np.where(counts > 0, counts, 1),
                               dtype=grad_out.dtype)
            grad_out = grad_out / scale[:, None]
        # Expand bag gradients back to per-index gradients.
        bag_ids = np.repeat(np.arange(len(counts)), counts)
        grad_rows = grad_out[bag_ids]
        if alpha is not None:
            grad_rows = grad_rows * alpha[:, None]
        np.add.at(self.weight.grad, indices, grad_rows)
        self.weight.record_touched(indices)
        self._cache = None

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Plain (non-pooled) row gather; used by caches and tests.

        Indices are validated against ``num_rows`` — a negative or
        out-of-range index raises :class:`IndexOutOfRangeError` instead of
        silently wrapping around through NumPy fancy indexing. Callers that
        want clamp-or-hash semantics for out-of-vocabulary ids must go
        through :class:`repro.serving.RequestSanitizer`; the table itself
        never guesses.
        """
        indices = check_1d_int_array(
            "indices", np.asarray(indices).reshape(-1),
            min_value=0, max_value=self.num_rows - 1,
        )
        return self.weight.data[indices]
