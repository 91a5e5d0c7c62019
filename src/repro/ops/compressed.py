"""The ``CompressedEmbedding`` contract every embedding operator implements.

Every embedding operator a model can hold — dense, TT, cached TT,
tensor-ring, hashing, low-rank, post-training quantization, DPQ and ALPT
— is a subclass, so
models, benches and the serving tier can swap compressors per table
without caring which family they got:

- ``forward(indices, offsets, per_sample_weights)`` / ``backward(grad)``
  with the *shared* re-entrancy contract: ``backward`` before ``forward``
  raises, and a second ``backward`` for the same forward raises instead
  of silently double-accumulating gradients — enforced here, once, for
  every operator;
- ``lookup(indices)`` — non-pooled row gather (serving path);
- ``memory_bytes()`` — actual bytes of the stored representation
  (parameters plus any non-parameter code/scale arrays), the quantity
  the :class:`~repro.compress.planner.BudgetPlanner` budgets against;
- ``compression_ratio()`` and ``state_dict()``/``load_state_dict()``;
- ``extra_state()``/``load_extra_state()`` — the one hook for
  non-parameter state, read by ``state_dict()`` and by
  :class:`~repro.reliability.checkpoint.CheckpointManager` alike.

Implementations are :class:`~repro.ops.module.Module` subclasses, so
parameter discovery, :class:`~repro.analysis.static.sanitizer.
NumericSanitizer` wrapping and telemetry labels all work unchanged.

Each operator keeps its own keyword constructor and records the knobs
that size its storage in ``spec``; ``from_spec(spec)`` is the inverse,
used by :func:`repro.compress.make_embedding`. The
``predict_memory_bytes(spec)`` classmethod answers ``memory_bytes()``
*without* building, exactly, which is what lets the planner search over
candidate specs cheaply. The registry mapping kinds to operators lives in
:mod:`repro.compress.base`; this module depends on no operator, so every
operator can import it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ops.module import Module
from repro.utils.dtypes import default_dtype

__all__ = ["EmbeddingSpec", "CompressedEmbedding", "as_spec"]


@dataclass(frozen=True)
class EmbeddingSpec:
    """One table's compressor choice: kind + shape + kind-specific knobs.

    ``params`` holds the per-kind knobs (``rank``, ``num_buckets``,
    ``bits``, ``codebook_size`` ...); unknown keys are rejected by
    ``from_spec`` so a typo'd knob fails loudly. An operator built with
    its keyword constructor records only the knobs that size its storage,
    and ``seed`` 0 (the generator it was given is not part of a spec).
    """

    kind: str
    num_rows: int
    dim: int
    mode: str = "sum"
    seed: int = 0
    name: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.num_rows <= 0 or self.dim <= 0:
            raise ValueError(
                f"num_rows and dim must be positive, got {self.num_rows}, {self.dim}"
            )

    def get(self, key: str, default=None):
        return self.params.get(key, default)

    def label(self) -> str:
        """Short human-readable identifier, e.g. ``tt(rank=8)``."""
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items())
                          if not isinstance(v, np.ndarray))
        return f"{self.kind}({knobs})" if knobs else self.kind

    def to_doc(self) -> dict:
        """JSON-safe dict (ndarray knobs are refused — pass those in code)."""
        for k, v in self.params.items():
            if isinstance(v, np.ndarray):
                raise ValueError(
                    f"spec param {k!r} is an ndarray and cannot be serialized"
                )
        return {
            "kind": self.kind, "num_rows": int(self.num_rows),
            "dim": int(self.dim), "mode": self.mode, "seed": int(self.seed),
            "name": self.name, "params": dict(self.params),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "EmbeddingSpec":
        return cls(
            kind=doc["kind"], num_rows=int(doc["num_rows"]),
            dim=int(doc["dim"]), mode=doc.get("mode", "sum"),
            seed=int(doc.get("seed", 0)), name=doc.get("name"),
            params=dict(doc.get("params", {})),
        )


def as_spec(spec) -> EmbeddingSpec:
    """Coerce a dict (``from_doc`` layout) to an :class:`EmbeddingSpec`."""
    if isinstance(spec, EmbeddingSpec):
        return spec
    if isinstance(spec, dict):
        return EmbeddingSpec.from_doc(spec)
    raise TypeError(f"expected EmbeddingSpec or dict, got {type(spec).__name__}")


class CompressedEmbedding(Module):
    """Abstract base of every embedding operator (see module docstring).

    Subclasses implement ``_forward_impl``/``_backward_impl``/``lookup``
    and inherit the uniform re-entrancy guard: the base ``backward``
    raises ``RuntimeError`` both before any forward and on a second call
    for the same forward, for *every* operator.
    """

    #: registry key; subclasses set it (e.g. ``"tt"``).
    kind: str = ""
    #: False for inference-only members (post-training quantization).
    supports_gradient: bool = True

    def __init__(self, spec: EmbeddingSpec):
        if spec.mode not in ("sum", "mean"):
            raise ValueError(f"mode must be 'sum' or 'mean', got {spec.mode!r}")
        self.spec = spec
        self.num_rows = spec.num_rows
        self.dim = spec.dim
        self.mode = spec.mode
        self._ready = False
        self._spent = False

    @classmethod
    def from_spec(cls, spec: EmbeddingSpec) -> "CompressedEmbedding":
        """Build the operator ``spec`` describes (the ``make_embedding`` path).

        Operators with keyword constructors override this to map the
        spec's knobs, with their zoo defaults, onto the constructor.
        """
        return cls(spec)

    # ------------------------------------------------------------------ #
    # Forward / backward with the shared re-entrancy contract
    # ------------------------------------------------------------------ #

    def forward(self, indices: np.ndarray, offsets: np.ndarray | None = None,
                per_sample_weights: np.ndarray | None = None) -> np.ndarray:
        out = self._forward_impl(indices, offsets, per_sample_weights)
        self._ready = True
        self._spent = False
        return out

    __call__ = forward

    def backward(self, grad_out: np.ndarray) -> None:
        if not self.supports_gradient:
            raise NotImplementedError(
                f"{type(self).__name__} ({self.kind!r}) is inference-only; "
                "train an uncompressed table and convert it post-training"
            )
        if self._spent:
            raise RuntimeError(
                "backward called twice for one forward; gradients would "
                "double-accumulate — run forward again first"
            )
        if not self._ready:
            raise RuntimeError("backward called before forward")
        self._backward_impl(grad_out)
        self._ready = False
        self._spent = True

    def _forward_impl(self, indices, offsets, per_sample_weights) -> np.ndarray:
        raise NotImplementedError

    def _backward_impl(self, grad_out) -> None:
        raise NotImplementedError

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Non-pooled row gather (reference semantics for ``forward``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Memory accounting
    # ------------------------------------------------------------------ #

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the stored representation."""
        params = self.parameters()
        if params:
            return params[0].data.dtype
        return default_dtype()

    def _extra_arrays(self) -> list[np.ndarray]:
        """Non-parameter arrays that count toward ``memory_bytes``."""
        return []

    def memory_bytes(self) -> int:
        """Actual bytes stored: parameters + code/scale side arrays."""
        total = sum(p.data.nbytes for p in self.parameters())
        total += sum(a.nbytes for a in self._extra_arrays())
        return int(total)

    def dense_bytes(self) -> int:
        """Bytes an uncompressed table would take at this dtype."""
        return int(self.num_rows) * int(self.dim) * self.dtype.itemsize

    def compression_ratio(self) -> float:
        return self.dense_bytes() / self.memory_bytes()

    @classmethod
    def predict_memory_bytes(cls, spec: EmbeddingSpec) -> int:
        """Exact ``memory_bytes()`` of ``make_embedding(spec)``, unbuilt."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def extra_state(self) -> dict:
        """Non-parameter state (arrays or scalars) a snapshot must carry.

        The one hook both ``state_dict`` and
        :class:`~repro.reliability.checkpoint.CheckpointManager` read.
        """
        return {}

    def load_extra_state(self, state: dict) -> None:
        """Inverse of :meth:`extra_state`."""
        for key in state:
            raise KeyError(f"unexpected extra state {key!r}")

    def state_dict(self) -> dict[str, np.ndarray]:
        """Bit-exact snapshot: parameters by positional key + extra arrays.

        Keys follow the checkpoint convention of
        :mod:`repro.models.serialization` (``"NNNN:param.name"``) with
        ``"extra:<key>"`` entries for non-parameter arrays.
        """
        out: dict[str, np.ndarray] = {}
        for i, p in enumerate(self.parameters()):
            out[f"{i:04d}:{p.name}"] = p.data.copy()
        for key, value in self.extra_state().items():
            out[f"extra:{key}"] = np.asarray(value).copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = {f"{i:04d}:{p.name}": p for i, p in enumerate(self.parameters())}
        extra: dict[str, np.ndarray] = {}
        seen: set[str] = set()
        for key, value in state.items():
            if key.startswith("extra:"):
                extra[key[len("extra:"):]] = value
                continue
            if key not in params:
                raise KeyError(f"unexpected parameter key {key!r}")
            p = params[key]
            value = np.asarray(value)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {value.shape} != {p.data.shape}"
                )
            p.data[...] = value
            seen.add(key)
        missing = sorted(set(params) - seen)
        if missing:
            raise KeyError(f"missing parameter keys: {missing}")
        if extra:
            self.load_extra_state(extra)

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.num_rows}x{self.dim}, "
                f"{self.spec.label()}, {self.memory_bytes():,} B)")


def _check_known_params(spec: EmbeddingSpec, allowed: set[str]) -> None:
    """Reject unknown spec knobs so typos fail at build time."""
    unknown = sorted(set(spec.params) - allowed)
    if unknown:
        raise ValueError(
            f"unknown params {unknown} for kind {spec.kind!r}; "
            f"allowed: {sorted(allowed)}"
        )
