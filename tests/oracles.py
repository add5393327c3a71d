"""Independent reference implementations used as test oracles.

These stay deliberately naive and structurally different from the library:
breadth-first search instead of union-find, an explicit all-pairs matrix with
Kruskal instead of implicit-graph Prim, and recursive hierarchy construction
instead of the iterative array-based path.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

MAX_DENSITY_LEVEL = 1e15  # mirrors the library's finite stand-in for 1/0


# -- connected components ------------------------------------------------------


def bfs_partition(n: int, hard_pairs) -> list[int]:
    """Component label per account via breadth-first search over hard links."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in hard_pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    labels = [-1] * n
    current = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        queue = deque([start])
        labels[start] = current
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if labels[y] == -1:
                    labels[y] = current
                    queue.append(y)
        current += 1
    return labels


def partition_sets(labels) -> set[frozenset]:
    """Canonical partition: the set of member sets."""
    groups: dict[int, set[int]] = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(idx)
    return {frozenset(g) for g in groups.values()}


def direct_soft_aggregation(labels, soft_links) -> dict[tuple[int, int], float]:
    """Accumulate soft-link weights between distinct components.

    Keys are canonical (smallest member of one side, smallest member of the
    other side) pairs so they can be compared across different indexings.
    """
    smallest: dict[int, int] = {}
    for idx, lab in enumerate(labels):
        if lab not in smallest or idx < smallest[lab]:
            smallest[lab] = idx
    weights: dict[tuple[int, int], float] = {}
    for link in soft_links:
        lu, lv = labels[link.u], labels[link.v]
        if lu == lv:
            continue
        a, b = smallest[lu], smallest[lv]
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0.0) + link.weight
    return weights


# -- brute-force density clustering --------------------------------------------


def cosine_distance(a, b) -> float:
    """1 - cos(a, b), in [0, 2].  Zero vectors are at distance 1 from everything."""
    if len(a) != len(b):
        raise ValueError("vectors must have equal dimensions")
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0.0 or nb == 0.0:
        return 1.0
    d = 1.0 - sum(x * y for x, y in zip(a, b)) / (na * nb)
    return min(2.0, max(0.0, d))


def mutual_reachability(a, b, core_a: float, core_b: float) -> float:
    """Scalar mutual reachability: the larger of both core distances and the
    direct cosine distance."""
    return max(float(core_a), float(core_b), cosine_distance(a, b))


def dense_cosine_distances(points) -> np.ndarray:
    """The all-pairs cosine distance matrix built with whole-matrix temporaries:
    the Gram matrix plus its transpose in a second n x n buffer."""
    X = np.asarray(points, dtype=np.float64)
    norms = np.linalg.norm(X, axis=1)
    zero = norms == 0.0
    U = X / np.where(zero, 1.0, norms)[:, None]
    S = U @ U.T
    D = S + S.T
    D *= -0.5
    D += 1.0
    np.clip(D, 0.0, 2.0, out=D)
    D[zero, :] = 1.0
    D[:, zero] = 1.0
    np.fill_diagonal(D, 0.0)
    return D


def reference_prim(M: np.ndarray) -> list[tuple[int, int, float]]:
    """Dense Prim over a finished mutual reachability matrix, with a masked
    argmin and fresh temporaries per vertex.  ``build_mst`` must return this
    edge list exactly, ties included."""
    n = M.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = M[0].copy()
    best_from = np.zeros(n, dtype=np.int64)
    best[0] = np.inf
    edges = []
    for _ in range(n - 1):
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
        edges.append((int(best_from[v]), v, float(best[v])))
        in_tree[v] = True
        improved = (M[v] < best) & ~in_tree
        best[improved] = M[v][improved]
        best_from[improved] = v
        best[v] = np.inf
    return edges


def reference_embedding_text(vectors) -> str:
    """The embedding file format written one f-string per value."""
    n, dim = vectors.shape
    lines = [f"#embedding {n} {dim}\n"]
    for sid in range(n):
        values = " ".join(f"{v:.8g}" for v in vectors[sid])
        lines.append(f"{sid}\t{values}\n")
    return "".join(lines)


class _Tree:
    __slots__ = ("children", "dist", "size", "leaf")

    def __init__(self, children=(), dist=0.0, size=1, leaf=None):
        self.children = list(children)
        self.dist = dist
        self.size = size
        self.leaf = leaf


def _kruskal(n: int, weighted_pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    mst = []
    for w, i, j in sorted(weighted_pairs):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            mst.append((w, i, j))
    return mst


def reference_hdbscan(points, min_cluster_size: int, min_samples: int):
    """Full brute-force pipeline; returns labels canonicalized by smallest member."""
    pts = [list(map(float, row)) for row in np.asarray(points, dtype=float)]
    n = len(pts)
    if n < 2:
        return np.full(n, -1, dtype=np.int64)

    D = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = cosine_distance(pts[i], pts[j])
            D[i][j] = D[j][i] = d
    k = min(min_samples, n - 1)
    cores = [sorted(D[i])[k] for i in range(n)]
    reach = []
    for i in range(n):
        for j in range(i + 1, n):
            reach.append((max(cores[i], cores[j], D[i][j]), i, j))

    mst = _kruskal(n, reach)
    if all(w == 0.0 for w, _, _ in mst):
        if n >= min_cluster_size:
            return np.zeros(n, dtype=np.int64)
        return np.full(n, -1, dtype=np.int64)

    # dendrogram by merging in ascending weight order; ties merge atomically
    # into multi-way nodes so the result does not depend on the tree choice
    nodes = {i: _Tree(leaf=i) for i in range(n)}
    comp = list(range(n))
    next_node = [n]
    ordered = sorted(mst, key=lambda e: (e[0], min(e[1], e[2]), max(e[1], e[2])))
    pos = 0
    while pos < len(ordered):
        w = ordered[pos][0]
        group = []
        while pos < len(ordered) and ordered[pos][0] == w:
            group.append(ordered[pos])
            pos += 1
        absorbed: dict[int, list[int]] = {}
        for _, i, j in group:
            ci, cj = comp[i], comp[j]
            if ci == cj:
                continue
            parts = absorbed.pop(ci, [ci]) + absorbed.pop(cj, [cj])
            new_id = next_node[0]
            next_node[0] += 1
            for x in range(n):
                if comp[x] in (ci, cj):
                    comp[x] = new_id
            absorbed[new_id] = parts
        for marker, parts in absorbed.items():
            merged = _Tree(
                children=[nodes[p] for p in parts],
                dist=w,
                size=sum(nodes[p].size for p in parts),
            )
            nodes[marker] = merged
            for p in parts:
                del nodes[p]
    root = nodes[max(nodes)]

    def leaves(tree):
        if tree.leaf is not None:
            return [tree.leaf]
        out = []
        for child in tree.children:
            out.extend(leaves(child))
        return out

    records: list[tuple[int, int | None, int, float, int]] = []
    # record: (parent cluster, child cluster or None, point, level, size)
    next_cluster = [n + 1]

    def condense(tree, cluster: int) -> None:
        lam = (1.0 / tree.dist) if tree.dist > 0.0 else MAX_DENSITY_LEVEL
        big = [c for c in tree.children if c.size >= min_cluster_size]
        small = [c for c in tree.children if c.size < min_cluster_size]
        if len(big) >= 2:
            for side in big:
                child = next_cluster[0]
                next_cluster[0] += 1
                records.append((cluster, child, -1, lam, side.size))
                condense(side, child)
        elif len(big) == 1:
            condense(big[0], cluster)
        for side in small:
            for p in leaves(side):
                records.append((cluster, None, p, lam, 1))

    condense(root, n)

    births = {n: 0.0}
    for parent, child, _, lam, _ in records:
        if child is not None:
            births[child] = lam
    stability: dict[int, float] = {}
    for parent, _, _, lam, size in records:
        stability[parent] = stability.get(parent, 0.0) + (lam - births[parent]) * size
    children: dict[int, list[int]] = {}
    for parent, child, _, _, _ in records:
        if child is not None:
            children.setdefault(parent, []).append(child)

    def select(cluster: int) -> tuple[set[int], float]:
        kids = children.get(cluster, [])
        if not kids:
            if cluster == n:  # childless root: nothing selectable
                return set(), 0.0
            return {cluster}, stability.get(cluster, 0.0)
        picked: set[int] = set()
        total = 0.0
        for kid in kids:
            sub, value = select(kid)
            picked |= sub
            total += value
        if cluster == n:  # the root is never selected
            return picked, total
        if stability.get(cluster, 0.0) >= total:
            return {cluster}, stability[cluster]
        return picked, total

    selected, _ = select(n)

    parent_of = {child: parent for parent, child, _, _, _ in records if child is not None}
    labels = np.full(n, -1, dtype=np.int64)
    owner: dict[int, int] = {}
    for parent, child, point, _, _ in records:
        if child is None:
            c: int | None = parent
            while c is not None and c not in selected:
                c = parent_of.get(c)
            if c is not None:
                owner[point] = c
    firsts: dict[int, int] = {}
    for p in range(n):
        c = owner.get(p)
        if c is not None and c not in firsts:
            firsts[c] = len(firsts)
    for p, c in owner.items():
        labels[p] = firsts[c]
    return labels


# -- negative-sampling SGD ---------------------------------------------------


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sequential_sgd_step(vertex, context, i: int, j: int, negatives, lr: float) -> None:
    """One negative-sampling ascent step for source i and positive j, in place.

    The per-sample update that training took before block updates: every
    gradient at the current values, each sample seeing the previous one's
    writes.  First-order training passes the same array as vertex and context.
    """
    v_i = vertex[i].copy()
    targets = [j, *negatives]
    old = [context[t].copy() for t in targets]
    coeffs = [
        lr * ((1.0 if k == 0 else 0.0) - _logistic(float(c @ v_i)))
        for k, c in enumerate(old)
    ]
    for t, g in zip(targets, coeffs):
        context[t] += g * v_i
    vertex[i] += sum(g * c for g, c in zip(coeffs, old))
