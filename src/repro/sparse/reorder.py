"""Bandwidth-reducing matrix reorderings.

The paper applies Reverse Cuthill-McKee (RCM) to the Hamiltonian matrix
"to improve spatial locality in the access to the right hand side vector,
and to optimize interprocess communication patterns towards near-neighbor
exchange" (Sect. 1.3.1) — and finds it gives no advantage over the HMeP
ordering.  We implement (R)CM from scratch on the CSR structure so the
ablation can be rerun.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "cuthill_mckee",
    "reverse_cuthill_mckee",
    "bfs_levels",
    "pseudo_peripheral_node",
]


def _symmetrized_adjacency(A: CSRMatrix) -> CSRMatrix:
    """Structure of ``A + A^T`` (values irrelevant), for traversals."""
    if A.nrows != A.ncols:
        raise ValueError("reordering requires a square matrix")
    t = A.transpose()
    ones_a = CSRMatrix(A.row_ptr, A.col_idx, np.ones(A.nnz), ncols=A.ncols, check=False)
    ones_t = CSRMatrix(t.row_ptr, t.col_idx, np.ones(t.nnz), ncols=t.ncols, check=False)
    return ones_a.add(ones_t)


def bfs_levels(adj: CSRMatrix, start: int) -> np.ndarray:
    """Breadth-first level of every node from *start* (-1 if unreachable)."""
    n = adj.nrows
    levels = np.full(n, -1, dtype=np.int64)
    levels[start] = 0
    frontier = [start]
    level = 0
    while frontier:
        level += 1
        nxt: list[int] = []
        for u in frontier:
            lo, hi = int(adj.row_ptr[u]), int(adj.row_ptr[u + 1])
            for v in adj.col_idx[lo:hi]:
                v = int(v)
                if levels[v] < 0:
                    levels[v] = level
                    nxt.append(v)
        frontier = nxt
    return levels


def pseudo_peripheral_node(adj: CSRMatrix, start: int = 0) -> int:
    """George-Liu heuristic: walk to a node of (locally) maximal eccentricity.

    A good CM starting node sits at the "end" of the graph; starting BFS
    there minimises the level-structure width and hence the reordered
    bandwidth.
    """
    node = start
    best_ecc = -1
    for _ in range(adj.nrows):  # terminates much earlier in practice
        levels = bfs_levels(adj, node)
        reachable = levels >= 0
        ecc = int(levels[reachable].max()) if reachable.any() else 0
        if ecc <= best_ecc:
            return node
        best_ecc = ecc
        last_level = np.flatnonzero(levels == ecc)
        # pick the minimum-degree node in the last level
        degrees = adj.row_nnz()[last_level]
        node = int(last_level[np.argmin(degrees)])
    return node


def cuthill_mckee(A: CSRMatrix, *, start: int | None = None) -> np.ndarray:
    """Cuthill-McKee ordering of a square sparse matrix.

    Returns ``perm`` with ``perm[new] = old`` such that
    ``A.permute(perm)`` has (heuristically) small bandwidth.  Disconnected
    components are handled by restarting from the lowest-degree unvisited
    node.
    """
    adj = _symmetrized_adjacency(A)
    n = adj.nrows
    degrees = adj.row_nnz()
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    queue: deque[int] = deque()

    def push_component_root() -> None:
        unvisited = np.flatnonzero(~visited)
        seed = int(unvisited[np.argmin(degrees[unvisited])])
        root = pseudo_peripheral_node(adj, seed) if start is None else start
        if visited[root]:
            root = seed
        visited[root] = True
        queue.append(root)

    while len(order) < n:
        if not queue:
            push_component_root()
        u = queue.popleft()
        order.append(u)
        lo, hi = int(adj.row_ptr[u]), int(adj.row_ptr[u + 1])
        neighbours = [int(v) for v in adj.col_idx[lo:hi] if not visited[v]]
        neighbours.sort(key=lambda v: int(degrees[v]))
        for v in neighbours:
            visited[v] = True
            queue.append(v)
    return np.asarray(order, dtype=np.int64)


def reverse_cuthill_mckee(A: CSRMatrix, *, start: int | None = None) -> np.ndarray:
    """Reverse Cuthill-McKee ordering (CM order reversed), as used in the
    paper's RCM ablation.  Returns ``perm`` with ``perm[new] = old``."""
    return cuthill_mckee(A, start=start)[::-1].copy()
