"""Shared per-deployment neighborhood cache: one grid index, one neighbor table.

Before this module the comm-radius :class:`~repro.network.spatial.GridIndex`
was built twice per scenario — once by :class:`~repro.network.medium.Medium`
for broadcast fan-out and once by
:class:`~repro.network.topology.NeighborTables` for the CDPF-NE knowledge
prerequisite — and every broadcast re-ran a disk query whose answer never
changes on a static deployment.  :class:`NeighborhoodCache` owns both
artifacts exactly once:

* the comm-radius grid index, built lazily on first query;
* per-node sorted one-hop neighbor lists (excluding the node itself),
  computed on first access and cached read-only.

The cache is *geometric only*: availability (sleep/crash), partitions and
link-loss state live in the medium and are applied on top of the cached
neighbor lists at delivery time.  The cache therefore only invalidates on
**mobility** (positions replaced), while the medium's availability-filtered
overlay additionally invalidates on fault mutations via
``Medium._rebuild_available``.

``epoch`` increments on every invalidation so consumers holding derived
overlays (the medium's offered-receiver cache) can cheaply detect staleness.
"""

from __future__ import annotations

import numpy as np

from .spatial import GridIndex

__all__ = ["NeighborhoodCache"]


class NeighborhoodCache:
    """Lazily built, shared neighborhood structures over one set of positions.

    Parameters
    ----------
    positions:
        ``(n, 2)`` node coordinates.  Not copied; treat as immutable — call
        :meth:`rebind` to move nodes.
    radius:
        The communication radius; both the grid cell size and the neighbor
        cut-off.
    """

    def __init__(self, positions: np.ndarray, radius: float) -> None:
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.positions = np.asarray(positions, dtype=np.float64)
        self.radius = float(radius)
        self.epoch = 0
        self._index: GridIndex | None = None
        self._neighbors: dict[int, np.ndarray] = {}
        self._have = np.zeros(self.positions.shape[0], dtype=bool)
        self._degree = np.full(self.positions.shape[0], -1, dtype=np.intp)
        self._kdtree = None
        self._kdtree_unavailable = False

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    @property
    def index(self) -> GridIndex:
        """The comm-radius grid index, built once per (positions, radius)."""
        if self._index is None:
            self._index = GridIndex(self.positions, self.radius)
        return self._index

    def neighbors(self, node_id: int) -> np.ndarray:
        """Sorted ids within ``radius`` of the node, excluding the node itself.

        The membership test is :meth:`GridIndex.query_disk`'s, so the set is
        bit-identical to what a per-message disk query would return; only the
        order is canonical (sorted) instead of grid-cell order.
        """
        cached = self._neighbors.get(node_id)
        if cached is not None:
            return cached
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node id {node_id} out of range [0, {self.n_nodes})")
        hits = self.index.query_disk(self.positions[node_id], self.radius)
        result = np.sort(hits[hits != node_id])
        result.setflags(write=False)
        self._neighbors[node_id] = result
        self._have[node_id] = True
        self._degree[node_id] = result.size
        return result

    def degree(self, node_id: int) -> int:
        """Number of one-hop neighbors (list length, without building the list).

        Served from the degree cache when :meth:`warm_degrees` (or a prior
        list materialization) has filled it; falls back to
        ``len(self.neighbors(node_id))`` otherwise.
        """
        d = self._degree[node_id]
        if d >= 0:
            return int(d)
        return int(self.neighbors(node_id).shape[0])

    def _tree(self):
        """The scipy KD-tree over all positions, or None when scipy is absent."""
        if self._kdtree is None and not self._kdtree_unavailable:
            try:
                from scipy.spatial import cKDTree
            except ImportError:  # pragma: no cover - scipy present in CI
                self._kdtree_unavailable = True
            else:
                self._kdtree = cKDTree(self.positions)
        return self._kdtree

    def _batch_candidates(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point, center) candidate pairs covering every in-disk pair.

        Prefers a KD-tree sweep (scipy, if importable — a soft dependency
        with a pure-numpy :meth:`GridIndex.query_disk_batch` fallback)
        because the tree's candidate set is ~3x tighter than the grid's
        3x3-cell box.  The query radius is inflated by one part in 1e9 so
        the candidate set is a strict superset of the exact membership; the
        caller re-filters with the bitwise ``d2 <= r*r`` test either way.
        """
        if self._tree() is None:
            flat, offsets = self.index.query_disk_batch(centers, self.radius)
            ctr = np.repeat(
                np.arange(offsets.size - 1, dtype=np.intp), np.diff(offsets)
            )
            return flat, ctr
        from scipy.spatial import cKDTree

        coo = self._kdtree.sparse_distance_matrix(
            cKDTree(centers), self.radius * (1.0 + 1e-9), output_type="coo_matrix"
        )
        return coo.row.astype(np.intp), coo.col.astype(np.intp)

    def warm(self, node_ids) -> None:
        """Fill the cache for many nodes with one batched pass.

        A caller that knows the set of nodes an iteration will touch uses
        this to replace N lazy ``query_disk`` misses with a single candidate
        sweep.  Each warmed list is bit-identical to what the lazy path
        would have cached: the membership test is ``query_disk``'s own
        ``d2 <= r * r`` expression applied on top of a superset candidate
        walk, and the stored order is the same ascending-id sort.
        """
        ids = np.asarray(node_ids, dtype=np.intp)
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self.n_nodes:
            raise ValueError(f"node ids out of range [0, {self.n_nodes})")
        missing = np.unique(ids[~self._have[ids]])
        if missing.size == 0:
            return
        centers = self.positions[missing]
        flat, ctr = self._batch_candidates(centers)
        if flat.size:
            d2 = np.sum((self.positions[flat] - centers[ctr]) ** 2, axis=1)
            keep = d2 <= self.radius * self.radius
            flat, ctr = flat[keep], ctr[keep]
        order = np.lexsort((flat, ctr))
        flat, ctr = flat[order], ctr[order]
        bounds = np.searchsorted(ctr, np.arange(missing.size + 1))
        for g, nid in enumerate(missing):
            hits = flat[bounds[g] : bounds[g + 1]]
            result = hits[hits != nid]  # ascending already (lexsort)
            result.setflags(write=False)
            self._neighbors[int(nid)] = result
            self._degree[nid] = result.size
        self._have[missing] = True

    def warm_degrees(self, node_ids) -> None:
        """Fill the degree cache without materializing neighbor lists.

        Degrees drive the paper's node-density terms (likelihood ``lambda``,
        the creation limit) far more often than the lists themselves are
        read, and a count costs much less than a list.

        With a KD-tree (built by :meth:`build_tree`, or by :meth:`warm`) the
        count is exact by construction: the tree is queried twice, at radius
        ``r * (1 - 1e-9)`` and ``r * (1 + 1e-9)``.  Any point passing the
        exact ``d2 <= r*r`` test lies inside the inflated ball, and any
        point inside the deflated ball passes the exact test (the margins
        dwarf the few-ULP disagreement between the tree's metric and the
        cache's squared-distance expression), so when both counts agree the
        exact count is pinned without looking at a single candidate row.
        Without a tree — and for nodes whose two counts disagree (a neighbor
        sits in the 1e-9 boundary band) — each node is counted with the
        lazy path's own disk query, which contains the node itself.
        """
        ids = np.asarray(node_ids, dtype=np.intp)
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self.n_nodes:
            raise ValueError(f"node ids out of range [0, {self.n_nodes})")
        missing = np.unique(ids[self._degree[ids] < 0])
        if missing.size and self._kdtree is not None:
            centers = self.positions[missing]
            hi = self._kdtree.query_ball_point(
                centers, self.radius * (1.0 + 1e-9), return_length=True
            )
            lo = self._kdtree.query_ball_point(
                centers, self.radius * (1.0 - 1e-9), return_length=True
            )
            sure = hi == lo
            # the disk always contains the node itself; degree excludes it
            self._degree[missing[sure]] = hi[sure] - 1
            missing = missing[~sure]
        for nid in missing.tolist():
            self._degree[nid] = self.index.query_disk(self.positions[nid], self.radius).size - 1

    def build_tree(self) -> None:
        """Build the KD-tree that batched degree and list queries use.

        The tree costs a scipy import (about 0.5 s and 29 MB resident per
        process, on a 2-CPU x86_64 host) plus a build, and answers a batch
        of degree counts several times faster than per-node disk queries.
        It pays off for a world that many cells query — the lock-step sweep
        backend builds it for every shared world — not for a single run.
        No-op when scipy is unavailable.
        """
        self._tree()

    def rebind(self, positions: np.ndarray) -> None:
        """Replace the positions (mobility): drops the index and every list."""
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != self.positions.shape:
            raise ValueError(
                f"position shape {positions.shape} != {self.positions.shape}"
            )
        self.positions = positions
        self.invalidate()

    def invalidate(self) -> None:
        self._index = None
        self._kdtree = None
        self._neighbors.clear()
        self._have[:] = False
        self._degree[:] = -1
        self.epoch += 1
