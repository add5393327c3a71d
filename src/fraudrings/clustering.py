"""Density-based clustering of embedding rows with cosine distance.

The pipeline is the standard HDBSCAN construction: per-point core distances,
mutual reachability distances, a minimum spanning tree, a condensed cluster
hierarchy, and excess-of-mass stability selection.  Points outside every
selected cluster are explicit noise (label -1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .embedding import CombinedEmbedding
from .graph import GraphParseError, UnionFind

# stand-in for an infinite density level at zero distance; keeps stability
# arithmetic finite when duplicate points merge
_MAX_LAMBDA = 1e15

# rows per block in the passes over the n x n distance matrix; bounds their
# temporaries at O(_BLOCK * n) floats.  A block of 32 rows (1.2 MB at n = 4 750)
# stays in cache between the two elementwise passes run on it: at n = 4 750 on
# a 2-vCPU VM the four passes took 81 ms in 32-row blocks (80 ms at 16, 82 ms
# at 64), 91 ms in 256-row blocks and 97 ms as whole-matrix passes
_BLOCK = 32


@dataclass
class ClusterParams:
    """``min_cluster_size`` is the smallest group worth reporting; the core
    distance neighbor count ``min_samples`` defaults to the same value."""

    min_cluster_size: int = 5
    min_samples: int | None = None

    def __post_init__(self) -> None:
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be >= 2")
        if self.min_samples is not None and self.min_samples < 1:
            raise ValueError("min_samples must be >= 1 when given")

    @property
    def effective_min_samples(self) -> int:
        return self.min_samples if self.min_samples is not None else self.min_cluster_size


class CondensedEdge(NamedTuple):
    """One condensed-hierarchy record: ``child`` leaves ``parent`` at density
    level ``lam`` carrying ``size`` points."""

    parent: int
    child: int
    lam: float
    size: int


@dataclass
class ClusterAssignment:
    """Labels per point (-1 = noise, 0..m-1 = clusters) plus hierarchy metadata."""

    labels: np.ndarray
    stabilities: dict[int, float] = field(default_factory=dict)
    hierarchy: list[CondensedEdge] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        labels = self.labels[self.labels >= 0]
        return int(labels.max()) + 1 if labels.size else 0

    @property
    def n_noise(self) -> int:
        return int(np.sum(self.labels == -1))


def pairwise_cosine_distances(points: np.ndarray) -> np.ndarray:
    """Dense all-pairs cosine distance matrix with a zero diagonal.

    Holds one n x n float64 buffer (8·n² bytes) and maps the Gram matrix to
    distances in place, one row block at a time.  The matrix is exactly
    symmetric: numpy computes ``U @ U.T`` with BLAS ``syrk`` and mirrors the
    triangle it filled, so S[i, j] and S[j, i] are the same float, and 1 - S
    equals the symmetrised ``-0.5·(S + Sᵀ) + 1`` bit for bit.
    ``test_matrix_bit_equal_to_dense_reference`` pins this, at sizes across
    the row blocks here and the BLAS blocks.
    """
    X = np.asarray(points, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    zero = norms == 0.0
    U = X / np.where(zero, 1.0, norms)[:, None]
    D = U @ U.T
    for a in range(0, D.shape[0], _BLOCK):
        blk = D[a : a + _BLOCK]
        np.subtract(1.0, blk, out=blk)
        np.clip(blk, 0.0, 2.0, out=blk)
    D[zero, :] = 1.0
    D[:, zero] = 1.0
    np.fill_diagonal(D, 0.0)
    return D


def core_distances(distances: np.ndarray, k: int) -> np.ndarray:
    """Distance to each point's k-th nearest neighbor (self excluded), read
    from the dense all-pairs matrix of :func:`pairwise_cosine_distances`.

    The matrix is partitioned in row blocks, so beyond that one n x n float64
    buffer (8·n² bytes) only O(block·n) temporaries are allocated.
    """
    D = np.asarray(distances, dtype=np.float64)
    n = D.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k ({k}) must be smaller than the number of points ({n})")
    # the self-distance 0 occupies one slot, so index k is the k-th neighbor
    cores = np.empty(n, dtype=np.float64)
    for a in range(0, n, _BLOCK):
        cores[a : a + _BLOCK] = np.partition(D[a : a + _BLOCK], k, axis=1)[:, k]
    return cores


def build_mst(distances: np.ndarray, cores: np.ndarray) -> list[tuple[int, int, float]]:
    """Minimum spanning tree of the mutual reachability graph (Prim, dense).

    ``distances`` is the dense all-pairs matrix of
    :func:`pairwise_cosine_distances`.  A float64 matrix is overwritten in
    place with the mutual reachability distances, so a :func:`cluster` call
    holds one n x n float64 buffer (8·n² bytes) plus O(block·n) temporaries,
    and this step adds only O(n); pass a copy to keep the original.
    """
    M = np.asarray(distances, dtype=np.float64)
    n = M.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to span a tree")
    cores = np.asarray(cores, dtype=np.float64)
    for a in range(0, n, _BLOCK):
        blk = M[a : a + _BLOCK]
        np.maximum(blk, cores[a : a + _BLOCK, None], out=blk)
        np.maximum(blk, cores, out=blk)
    np.fill_diagonal(M, 0.0)
    # best[v] is inf once v is in the tree, so argmin only finds outside vertices
    alive = np.ones(n, dtype=bool)
    alive[0] = False
    best = M[0].copy()
    best[0] = np.inf
    best_from = np.zeros(n, dtype=np.int64)
    improved = np.empty(n, dtype=bool)
    edges: list[tuple[int, int, float]] = []
    for _ in range(n - 1):
        v = int(best.argmin())
        edges.append((int(best_from[v]), v, float(best[v])))
        alive[v] = False
        row = M[v]
        np.less(row, best, out=improved)
        improved &= alive
        np.copyto(best, row, where=improved)
        np.copyto(best_from, v, where=improved)
        best[v] = np.inf
    return edges


def _single_linkage(
    n: int, mst_edges: Sequence[tuple[int, int, float]]
) -> list[tuple[tuple[int, ...], float, int]]:
    """Merge MST edges in ascending weight order into a dendrogram.

    Edges of exactly equal weight merge atomically, producing multi-way nodes;
    this makes the hierarchy a function of the threshold-graph components
    alone, independent of which of several tied spanning trees was found.
    Merge t creates dendrogram node ``n + t``; leaves are nodes 0..n-1.
    Returns merge records (children, distance, size).
    """
    order = sorted(mst_edges, key=lambda e: (e[2], min(e[0], e[1]), max(e[0], e[1])))
    uf = UnionFind(n)
    node_of = list(range(n))  # union-find root -> current dendrogram node
    size_of = {i: 1 for i in range(n)}
    merges: list[tuple[tuple[int, ...], float, int]] = []
    next_id = n
    pos = 0
    while pos < len(order):
        w = order[pos][2]
        group = []
        while pos < len(order) and order[pos][2] == w:
            group.append(order[pos])
            pos += 1
        # pre-group dendrogram nodes absorbed into each merged component,
        # keyed by the component's current root
        absorbed: dict[int, list[int]] = {}
        for u, v, _ in group:
            ru, rv = uf.find(u), uf.find(v)
            if ru == rv:
                continue
            nodes_u = absorbed.pop(ru, [node_of[ru]])
            nodes_v = absorbed.pop(rv, [node_of[rv]])
            uf.union(ru, rv)
            absorbed[uf.find(ru)] = nodes_u + nodes_v
        for root, children in absorbed.items():
            size = sum(size_of[c] for c in children)
            merges.append((tuple(children), w, size))
            size_of[next_id] = size
            node_of[root] = next_id
            next_id += 1
    return merges


def _condense(
    merges: Sequence[tuple[tuple[int, ...], float, int]],
    n: int,
    min_cluster_size: int,
) -> list[CondensedEdge]:
    """Condense the dendrogram.

    At each merge level, children that reach ``min_cluster_size`` persist as
    clusters (a lone big child continues its parent's cluster); points of the
    smaller children fall out at that level's density.
    """
    if not merges:
        return []
    children_of: dict[int, tuple[int, ...]] = {}
    dist: dict[int, float] = {}
    size = {i: 1 for i in range(n)}
    for t, (children, w, s) in enumerate(merges):
        node = n + t
        children_of[node], dist[node], size[node] = children, w, s
    root = n + len(merges) - 1

    def leaves(node: int) -> list[int]:
        out: list[int] = []
        stack = [node]
        while stack:
            x = stack.pop()
            if x < n:
                out.append(x)
            else:
                stack.extend(children_of[x])
        return out

    records: list[CondensedEdge] = []
    relabel = {root: n}
    next_label = n + 1
    queue: deque[int] = deque([root])
    while queue:
        node = queue.popleft()
        kids = children_of[node]
        d = dist[node]
        lam = 1.0 / d if d > 0.0 else _MAX_LAMBDA
        cl = relabel[node]
        big = [c for c in kids if size[c] >= min_cluster_size]
        small = [c for c in kids if size[c] < min_cluster_size]
        if len(big) >= 2:
            for c in big:
                relabel[c] = next_label
                records.append(CondensedEdge(cl, next_label, lam, size[c]))
                next_label += 1
                queue.append(c)
        elif len(big) == 1:
            relabel[big[0]] = cl
            queue.append(big[0])
        for c in small:
            for p in leaves(c):
                records.append(CondensedEdge(cl, p, lam, 1))
    return records


def _compute_stability(records: Sequence[CondensedEdge], n: int) -> dict[int, float]:
    births: dict[int, float] = {n: 0.0}
    for rec in records:
        if rec.child >= n:
            births[rec.child] = rec.lam
    stab: dict[int, float] = {}
    for rec in records:
        stab[rec.parent] = stab.get(rec.parent, 0.0) + (
            rec.lam - births[rec.parent]
        ) * rec.size
    return stab


def _select_clusters(
    records: Sequence[CondensedEdge], stab: dict[int, float], n: int
) -> set[int]:
    """Excess-of-mass selection; the root cluster is never selected."""
    children: dict[int, list[int]] = {}
    for rec in records:
        if rec.child >= n:
            children.setdefault(rec.parent, []).append(rec.child)
    selected = {c: True for c in stab if c != n}
    running = dict(stab)
    for c in sorted(children, reverse=True):
        if c == n:
            continue
        child_sum = sum(running[ch] for ch in children[c])
        if running[c] < child_sum:
            selected[c] = False
            running[c] = child_sum
        else:
            stack = list(children[c])
            while stack:
                d = stack.pop()
                selected[d] = False
                stack.extend(children.get(d, ()))
    return {c for c, keep in selected.items() if keep}


def _assign_labels(
    records: Sequence[CondensedEdge],
    selected: set[int],
    n: int,
    stab: dict[int, float],
) -> tuple[np.ndarray, dict[int, float]]:
    parent_of = {rec.child: rec.parent for rec in records if rec.child >= n}
    point_cluster = {rec.child: rec.parent for rec in records if rec.child < n}
    labels = np.full(n, -1, dtype=np.int64)
    owner: dict[int, int] = {}
    for p in range(n):
        c = point_cluster.get(p)
        while c is not None and c not in selected:
            c = parent_of.get(c)
        if c is not None:
            owner[p] = c
    # canonical labels: clusters numbered by their smallest member
    firsts: dict[int, int] = {}
    for p in range(n):
        c = owner.get(p)
        if c is not None and c not in firsts:
            firsts[c] = len(firsts)
    for p, c in owner.items():
        labels[p] = firsts[c]
    stabilities = {firsts[c]: stab.get(c, 0.0) for c in firsts}
    return labels, stabilities


def extract_clusters(
    mst_edges: Sequence[tuple[int, int, float]], params: ClusterParams
) -> ClusterAssignment:
    """Hierarchy, stability, and selection over an MST of mutual reachability."""
    n = len(mst_edges) + 1
    if n < 2:
        return ClusterAssignment(labels=np.full(max(n, 0), -1, dtype=np.int64))
    if all(e[2] == 0.0 for e in mst_edges):
        # every point mutually at distance zero: one cluster holds everything
        if n >= params.min_cluster_size:
            records = [CondensedEdge(n, p, _MAX_LAMBDA, 1) for p in range(n)]
            return ClusterAssignment(
                labels=np.zeros(n, dtype=np.int64),
                stabilities={0: float("inf")},
                hierarchy=records,
            )
        return ClusterAssignment(labels=np.full(n, -1, dtype=np.int64))
    merges = _single_linkage(n, mst_edges)
    records = _condense(merges, n, params.min_cluster_size)
    stab = _compute_stability(records, n)
    selected = _select_clusters(records, stab, n)
    labels, stabilities = _assign_labels(records, selected, n, stab)
    return ClusterAssignment(labels=labels, stabilities=stabilities, hierarchy=records)


def cluster(embedding: CombinedEmbedding, params: ClusterParams) -> ClusterAssignment:
    """Full clustering of combined embedding rows.

    All-zero rows (super-nodes without soft edges) are labeled noise up front
    and excluded from the distance computations.
    """
    X = np.asarray(embedding.vectors, dtype=np.float64)
    n = X.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    nonzero = np.linalg.norm(X, axis=1) > 0.0
    active = np.flatnonzero(nonzero)
    if active.size < 2:
        return ClusterAssignment(labels=labels)
    D = pairwise_cosine_distances(X[active])
    k = min(params.effective_min_samples, active.size - 1)
    cores = core_distances(D, k)
    mst = build_mst(D, cores)
    sub = extract_clusters(mst, params)
    labels[active] = sub.labels
    return ClusterAssignment(
        labels=labels, stabilities=sub.stabilities, hierarchy=sub.hierarchy
    )


def write_cluster_assignment(assignment: ClusterAssignment, out: TextIO) -> None:
    """One ``supernode_id <TAB> label`` line per row plus summary comments."""
    for sid, label in enumerate(assignment.labels.tolist()):
        out.write(f"{sid}\t{label}\n")
    out.write(f"# clusters {assignment.n_clusters}\n")
    out.write(f"# noise {assignment.n_noise}\n")


def read_cluster_assignment(source: Iterable[str]) -> ClusterAssignment:
    rows: dict[int, int] = {}
    first_line: dict[int, int] = {}  # label -> line it first appears on
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphParseError("cluster line needs 2 fields", lineno)
        try:
            sid, label = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("bad cluster line", lineno) from None
        if sid in rows:
            raise GraphParseError(f"repeated cluster row {sid}", lineno)
        if label < -1:
            raise GraphParseError(f"cluster label {label} below -1 (noise)", lineno)
        rows[sid] = label
        first_line.setdefault(label, lineno)
    if sorted(rows) != list(range(len(rows))):
        raise GraphParseError("cluster rows must cover ids 0..n-1 exactly")
    m = sum(1 for label in first_line if label >= 0)
    gaps = [label for label in first_line if label >= m]
    if gaps:
        raise GraphParseError(
            f"cluster labels must be 0..{m - 1} exactly, got {gaps[0]}", first_line[gaps[0]]
        )
    labels = np.array([rows[i] for i in range(len(rows))], dtype=np.int64)
    return ClusterAssignment(labels=labels)
