"""Independent correctness checks for benchmark cells.

Every check here is computed without the program's own baselines:
SCC and CC partitions come from networkx, LE-lists from a plain BFS
distance table and the LE-list definition. Partitions are compared in a
canonical form, so two label arrays agree exactly when they induce the
same partition of the vertices.
"""
from __future__ import annotations

import networkx as nx
import numpy as np


def canon(labels: np.ndarray) -> np.ndarray:
    """Relabel every vertex with the smallest vertex id of its class."""
    labels = np.asarray(labels)
    n = len(labels)
    _, inv = np.unique(labels, return_inverse=True)
    first = np.full(inv.max(initial=-1) + 1, n, dtype=np.int64)
    np.minimum.at(first, inv, np.arange(n, dtype=np.int64))
    return first[inv]


def _canon_from_sets(n: int, comps) -> np.ndarray:
    out = np.empty(n, dtype=np.int64)
    for comp in comps:
        ids = np.fromiter(comp, dtype=np.int64, count=len(comp))
        out[ids] = ids.min()
    return out


def scc_reference(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return _canon_from_sets(n, nx.strongly_connected_components(g))


def cc_reference(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    return _canon_from_sets(n, nx.connected_components(g))


def bfs_distances(indptr: np.ndarray, indices: np.ndarray, s: int) -> np.ndarray:
    """Hop distance from ``s`` to every vertex (-1 if unreachable)."""
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[s] = 0
    frontier = np.asarray([s], dtype=np.int64)
    d = 0
    while len(frontier):
        d += 1
        starts = indptr[frontier]
        lens = indptr[frontier + 1] - starts
        total = int(lens.sum())
        if total == 0:
            break
        offs = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(total)
        nbrs = np.unique(indices[offs])
        frontier = nbrs[dist[nbrs] < 0]
        dist[frontier] = d
    return dist


def lelists_reference(
    indptr: np.ndarray, indices: np.ndarray, order: np.ndarray
) -> list[list[tuple[int, int]]]:
    """LE-lists by definition: ``(s, d(s, u))`` enters u's list iff it is
    strictly closer than every source earlier in ``order``."""
    n = len(indptr) - 1
    best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s in np.asarray(order, dtype=np.int64).tolist():
        dist = bfs_distances(indptr, indices, s)
        hit = np.flatnonzero((dist >= 0) & (dist < best))
        for u, du in zip(hit.tolist(), dist[hit].tolist()):
            lists[u].append((s, du))
        best[hit] = dist[hit]
    return lists


def same_partition(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(np.array_equal(got, want))
