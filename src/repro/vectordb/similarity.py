"""The paper's incident similarity formula (Section 4.2.2).

.. math::

    Distance(a, b)   = ||a - b||_2
    Similarity(a, b) = \\frac{1}{1 + Distance(a, b)} \\cdot e^{-\\alpha |T(a) - T(b)|}

The Euclidean term captures semantic similarity of the embedded diagnostic
information; the exponential term decays with the temporal gap between the
two incidents (in days), implementing Insight 2: recent incidents of the same
category are far more likely to share a root cause.  ``alpha`` controls the
strength of the decay; the paper finds ``alpha = 0.3`` optimal (Figure 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Paper-selected defaults (Section 4.2.2 / Figure 12).
DEFAULT_ALPHA = 0.3
DEFAULT_K = 5


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two embedding vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def temporal_decay(days_a: float, days_b: float, alpha: float = DEFAULT_ALPHA) -> float:
    """The temporal term ``exp(-alpha * |T(a) - T(b)|)`` with times in days."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return math.exp(-alpha * abs(days_a - days_b))


def similarity(
    a: np.ndarray,
    b: np.ndarray,
    days_a: float,
    days_b: float,
    alpha: float = DEFAULT_ALPHA,
) -> float:
    """Full similarity score between two incidents.

    Args:
        a: Embedding of the first incident.
        b: Embedding of the second incident.
        days_a: Creation time of the first incident, in days.
        days_b: Creation time of the second incident, in days.
        alpha: Temporal decay coefficient.

    Returns:
        A score in (0, 1]; 1.0 only for identical embeddings at an identical
        time.
    """
    distance = euclidean_distance(a, b)
    return (1.0 / (1.0 + distance)) * temporal_decay(days_a, days_b, alpha)


def similarity_matrix(
    queries: np.ndarray,
    query_days: np.ndarray,
    matrix: np.ndarray,
    days: np.ndarray,
    alpha: float,
) -> np.ndarray:
    """:func:`similarity` of every query against every stored row, ``(Q, N)``.

    Each score depends on its own query and row only.  Squared distances
    come from the expansion ``|q|^2 + |m|^2 - 2 q.m``, where every dot
    product and norm is one ``einsum`` reduction over the embedding
    dimension.  So a query scores bit-identically whatever queries share its
    batch and however many rows (or which shard of them) it is scored
    against.  A BLAS matrix product lacks that property: it rounds the dot
    products differently for different block shapes, which flips exact
    score ties.

    Args:
        queries: ``(Q, dim)`` query embeddings.
        query_days: ``(Q,)`` query creation days.
        matrix: ``(N, dim)`` stored embeddings.
        days: ``(N,)`` stored creation days.
        alpha: Temporal decay coefficient.
    """
    # C order keeps the embedding dimension innermost, so every reduction
    # runs over one contiguous pair of rows whatever the array shapes.
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    distances = np.einsum("qd,nd->qn", queries, matrix)
    distances *= -2.0
    distances += np.einsum("qd,qd->q", queries, queries)[:, None]
    distances += np.einsum("nd,nd->n", matrix, matrix)[None, :]
    np.maximum(distances, 0.0, out=distances)  # guard fp cancellation
    np.sqrt(distances, out=distances)
    distances += 1.0  # 1 + distance
    decay = days[None, :] - query_days[:, None]
    np.abs(decay, out=decay)
    decay *= -alpha
    np.exp(decay, out=decay)
    decay /= distances
    return decay


@dataclass(frozen=True)
class SimilarityConfig:
    """Configuration of the neighbour search used by the prediction stage."""

    alpha: float = DEFAULT_ALPHA
    k: int = DEFAULT_K
    #: When True (the paper's design), the top-K demonstrations are drawn from
    #: distinct categories to keep the prompt diverse.
    diverse_categories: bool = True

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.k <= 0:
            raise ValueError("k must be positive")
