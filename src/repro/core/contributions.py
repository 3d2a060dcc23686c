"""Neighborhood estimation: estimated neighbor contributions (paper §V).

Definition 1 (*estimation area*): the disk of sensing radius centered at the
predicted target position.

Definition 2 (*estimated neighbor contributions*): within an estimation area
containing nodes at distances ``d_0 .. d_m`` from the predicted position,

    c_i = 1 / (d_i * D),      D = sum_j 1 / d_j

i.e. contribution inversely proportional to distance, normalized so the set
sums to one (Theorem 1) and identical no matter which node computes it
(Theorem 2 — it depends only on shared, consistent data).  Both theorems are
re-stated here as executable checks used by the property tests.

The *linear probability model* (borrowed from the TDSS paper [21]) decides
which neighbors record propagated particles:  p_i = max(0, 1 - d_i / r).
"""

from __future__ import annotations

import numpy as np

from ..kernels.contributions import batch_contributions

__all__ = [
    "estimated_contributions",
    "contribution_of",
    "linear_probability",
    "is_normalized",
    "pairwise_ratio_consistent",
]

#: Distances below this are clamped before inversion.  A node exactly at the
#: predicted position would otherwise get infinite contribution; the clamp
#: caps its dominance at (sensing_radius / _D_MIN) times the farthest node.
_D_MIN = 1e-3


def estimated_contributions(distances: np.ndarray, *, d_min: float = _D_MIN) -> np.ndarray:
    """Definition 2: normalized inverse-distance contributions.

    Parameters
    ----------
    distances:
        ``(m,)`` distances of every node in the estimation area from the
        predicted target position (any order; the result aligns with it).
    d_min:
        Clamp applied before inversion (see :data:`_D_MIN`).

    Returns
    -------
    ``(m,)`` contributions, non-negative, summing to exactly 1.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError(f"distances must be a non-empty 1-D array, got shape {d.shape}")
    if (d < 0).any() or not np.isfinite(d).all():
        raise ValueError("distances must be finite and non-negative")
    return batch_contributions(d, d_min=d_min)


def contribution_of(
    own_distance: float, all_distances: np.ndarray, *, d_min: float = _D_MIN
) -> float:
    """The c_0 a node computes for itself: 1/(d_0 * D) with D over the whole area.

    ``all_distances`` must include ``own_distance`` (it is what the node
    computes from its neighbor table plus its own position); we validate that
    to catch the classic off-by-one of forgetting oneself in D.
    """
    d = np.asarray(all_distances, dtype=np.float64)
    if not np.isclose(d, own_distance, rtol=1e-9, atol=1e-12).any():
        raise ValueError("all_distances must include own_distance")
    inv = 1.0 / np.maximum(d, d_min)
    return float((1.0 / max(own_distance, d_min)) / inv.sum())


def linear_probability(distances: np.ndarray, radius: float) -> np.ndarray:
    """TDSS linear probability model: p_i = max(0, 1 - d_i / radius).

    Nodes with p > 0 lie inside the predicted area and are candidates for
    recording propagated particles; the division rule weights recorders
    proportionally to p.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    d = np.asarray(distances, dtype=np.float64)
    if (d < 0).any() or not np.isfinite(d).all():
        raise ValueError("distances must be finite and non-negative")
    return np.maximum(0.0, 1.0 - d / radius)


# ---------------------------------------------------------------------------
# Executable statements of Theorems 1 and 2 (used by tests)
# ---------------------------------------------------------------------------


def is_normalized(contributions: np.ndarray, atol: float = 1e-9) -> bool:
    """Theorem 1: the estimated contributions sum to one and are non-negative."""
    c = np.asarray(contributions, dtype=np.float64)
    return bool((c >= 0).all() and np.isclose(c.sum(), 1.0, rtol=0, atol=atol))


def pairwise_ratio_consistent(
    contributions: np.ndarray, distances: np.ndarray, rtol: float = 1e-7
) -> bool:
    """Eq. 4: c_i * d_i is the same constant for every node in the area.

    (With the d_min clamp the invariant holds for all distances >= d_min,
    which tests respect.)
    """
    c = np.asarray(contributions, dtype=np.float64)
    d = np.asarray(distances, dtype=np.float64)
    products = c * d
    return bool(np.allclose(products, products[0], rtol=rtol))
