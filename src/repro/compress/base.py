"""The compressor registry: kind key -> :class:`CompressedEmbedding` class.

``make_embedding(spec)`` is the one factory: give it an
:class:`~repro.ops.compressed.EmbeddingSpec` (or a plain dict) and it
builds the operator registered under ``spec.kind``.
``predict_memory_bytes(spec)`` answers the same question *without*
building — each operator class predicts exactly what its instance will
report. The contract itself lives in :mod:`repro.ops.compressed`.
"""

from __future__ import annotations

from repro.ops.compressed import CompressedEmbedding, EmbeddingSpec, as_spec

__all__ = [
    "register_compressor",
    "registered_kinds",
    "compressor_class",
    "make_embedding",
    "predict_memory_bytes",
]

_REGISTRY: dict[str, type[CompressedEmbedding]] = {}


def register_compressor(cls: type[CompressedEmbedding]):
    """Register ``cls`` under its ``kind`` key (usable as a decorator)."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must set a non-empty 'kind'")
    if cls.kind in _REGISTRY:
        raise ValueError(f"compressor kind {cls.kind!r} already registered")
    _REGISTRY[cls.kind] = cls
    return cls


def registered_kinds() -> list[str]:
    return sorted(_REGISTRY)


def compressor_class(kind: str) -> type[CompressedEmbedding]:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown compressor kind {kind!r}; registered: {registered_kinds()}"
        ) from None


def make_embedding(spec: EmbeddingSpec | dict) -> CompressedEmbedding:
    """Build the registered operator for ``spec`` — the zoo's one door."""
    spec = as_spec(spec)
    emb = compressor_class(spec.kind).from_spec(spec)
    emb.spec = spec  # the caller's spec: its seed, name and every knob set
    return emb


def predict_memory_bytes(spec: EmbeddingSpec | dict) -> int:
    """``memory_bytes()`` the built operator would report, without building."""
    spec = as_spec(spec)
    return compressor_class(spec.kind).predict_memory_bytes(spec)
