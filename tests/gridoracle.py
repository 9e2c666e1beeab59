"""Grid-graph shortest-path oracle for the 4-leaf orthant complex.

Discretizes every quadrant with step h, shares ray and origin nodes between
adjacent quadrants, connects grid points by straight segments from a coprime
direction stencil, and runs Dijkstra.  Independent of the exact geodesic
code: errs only by the stencil's angular resolution plus O(h) snapping."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from phylo.treespace import MetricTree, axis_order, enumerate_binary_topologies, leaves


def _directions(reach: int) -> list[tuple[int, int]]:
    dirs = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for a, b in product(range(1, reach + 1), repeat=2):
        if math.gcd(a, b) == 1:
            dirs.update({(a, b), (-a, b), (a, -b), (-a, -b)})
    return sorted(dirs)


class GridComplex:
    def __init__(self, radius: float, step: float, reach: int = 5):
        self.h = step
        self.m = int(round(radius / step))
        self.orthants = enumerate_binary_topologies(4)
        self.quad_axes = [axis_order(o.clusters) for o in self.orthants]
        self.quad_index = {frozenset(o.clusters): q
                           for q, o in enumerate(self.orthants)}
        rays = sorted({c for o in self.orthants for c in o.clusters}, key=leaves)
        self.ray_index = {c: r for r, c in enumerate(rays)}
        m = self.m
        self.n_nodes = 1 + len(rays) * m + len(self.orthants) * m * m
        self._interior_base = 1 + len(rays) * m
        self.graph = self._build(reach)

    def _ray_id(self, cluster, i: int) -> int:
        return 1 + self.ray_index[cluster] * self.m + (i - 1)

    def _ids(self, q: int) -> np.ndarray:
        """Node ids on the closed (m+1) x (m+1) box of quadrant q."""
        m = self.m
        ids = np.empty((m + 1, m + 1), dtype=np.int64)
        ids[0, 0] = 0
        a1, a2 = self.quad_axes[q]
        for i in range(1, m + 1):
            ids[i, 0] = self._ray_id(a1, i)
            ids[0, i] = self._ray_id(a2, i)
        base = self._interior_base + q * m * m
        inner = base + np.arange(m * m, dtype=np.int64).reshape(m, m)
        ids[1:, 1:] = inner
        return ids

    def _build(self, reach: int):
        rows, cols, data = [], [], []
        m = self.m
        for q in range(len(self.orthants)):
            ids = self._ids(q)
            for dx, dy in _directions(reach):
                x0 = max(0, -dx)
                x1 = m + 1 - max(0, dx)
                y0 = max(0, -dy)
                y1 = m + 1 - max(0, dy)
                if x1 <= x0 or y1 <= y0:
                    continue
                src = ids[x0:x1, y0:y1].ravel()
                dst = ids[x0 + dx:x1 + dx, y0 + dy:y1 + dy].ravel()
                rows.append(src)
                cols.append(dst)
                data.append(np.full(src.size, self.h * math.hypot(dx, dy),
                                    dtype=np.float64))
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        data = np.concatenate(data)
        return coo_matrix((data, (rows, cols)),
                          shape=(self.n_nodes, self.n_nodes)).tocsr()

    def node_of(self, t: MetricTree) -> int:
        cl = t.clusters
        steps = {}
        for c, x in cl.items():
            k = round(x / self.h)
            assert abs(k * self.h - x) < 1e-9, "tree is not on the grid"
            assert 1 <= k <= self.m, "tree outside the grid box"
            steps[c] = k
        if not steps:
            return 0
        if len(steps) == 1:
            ((c, k),) = steps.items()
            return self._ray_id(c, k)
        q = self.quad_index[frozenset(steps)]
        a1, a2 = self.quad_axes[q]
        base = self._interior_base + q * self.m * self.m
        return base + (steps[a1] - 1) * self.m + (steps[a2] - 1)

    def distances(self, sources: list[MetricTree], targets: list[MetricTree]
                  ) -> np.ndarray:
        src = [self.node_of(t) for t in sources]
        tgt = [self.node_of(t) for t in targets]
        dist = dijkstra(self.graph, directed=True, indices=src)
        return dist[:, tgt]
