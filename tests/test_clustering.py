"""Cosine distances, density machinery, hierarchy extraction, and the oracle."""

import io
import tracemalloc

import numpy as np
import pytest

from fraudrings.clustering import (
    _BLOCK,
    ClusterAssignment,
    ClusterParams,
    build_mst,
    cluster,
    core_distances,
    extract_clusters,
    pairwise_cosine_distances,
    read_cluster_assignment,
    write_cluster_assignment,
)
from fraudrings.embedding import CombinedEmbedding
from fraudrings.graph import GraphParseError

from oracles import (
    cosine_distance,
    dense_cosine_distances,
    mutual_reachability,
    reference_hdbscan,
    reference_prim,
)

# sizes on both sides of row-block boundaries of the blocked matrix passes
# (the first and the eighth), and past the BLAS blocks of the Gram product,
# whose exact symmetry the distance build relies on
BLOCK_EDGE_SIZES = (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 255, 256, 257, 515, 1025)


def embedding_of(vectors) -> CombinedEmbedding:
    vectors = np.asarray(vectors, dtype=float)
    norms = np.linalg.norm(vectors, axis=1)
    return CombinedEmbedding(vectors=vectors, normalized=False, zero_rows=norms == 0)


def sphere_points(rng, n, dim=16):
    pts = rng.normal(size=(n, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def rows_with_zeros(rng, n, with_zero, dim=12):
    pts = rng.normal(size=(n, dim))
    if with_zero:
        pts[rng.choice(n, size=max(1, n // 10), replace=False)] = 0.0
    return pts


def reach_matrix(pts, cores):
    """The mutual reachability matrix that build_mst leaves in its input."""
    M = pairwise_cosine_distances(pts)
    build_mst(M, np.asarray(cores, dtype=float))
    return M


def two_blobs(rng, per_blob=20, dim=8, spread=0.02):
    c1 = rng.normal(size=dim)
    c2 = -c1
    pts = np.vstack(
        [c1 + spread * rng.normal(size=(per_blob, dim)),
         c2 + spread * rng.normal(size=(per_blob, dim))]
    )
    return pts


class TestCosineDistance:
    def test_identical_vectors(self):
        v = np.array([2.0, 1.0, -3.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_antipodal(self):
        v = np.array([0.5, -0.25, 4.0])
        assert cosine_distance(v, -v) == pytest.approx(2.0, abs=1e-12)

    def test_zero_vector_distance_one(self):
        assert cosine_distance(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 1.0
        assert cosine_distance(np.zeros(3), np.zeros(3)) == 1.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_distance(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("with_zero", [False, True])
    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_matrix_bit_equal_to_dense_reference(self, rng, n, with_zero):
        pts = rows_with_zeros(rng, n, with_zero)
        assert np.array_equal(pairwise_cosine_distances(pts), dense_cosine_distances(pts))


class TestCoreDistances:
    def test_three_collinear_points(self):
        # pairwise cosine distances {1, 1, 2}
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        cores = core_distances(pairwise_cosine_distances(pts), 1)
        np.testing.assert_allclose(cores, [1.0, 1.0, 1.0], atol=1e-12)

    def test_duplicate_pair_core_zero(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cores = core_distances(pairwise_cosine_distances(pts), 1)
        assert cores[0] == pytest.approx(0.0, abs=1e-12)
        assert cores[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_sort(self, rng):
        for n in (5, 40, 200):
            pts = sphere_points(rng, n)
            k = int(rng.integers(1, min(6, n - 1) + 1))
            D = pairwise_cosine_distances(pts)
            cores = core_distances(D, k)
            for i in range(n):
                row = sorted(D[i][j] for j in range(n) if j != i)
                assert cores[i] == pytest.approx(row[k - 1], abs=1e-12)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            core_distances(pairwise_cosine_distances(np.eye(3)), 3)

    @pytest.mark.parametrize("with_zero", [False, True])
    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES[1:])
    def test_bit_equal_to_full_matrix_partition(self, rng, n, with_zero):
        D = dense_cosine_distances(rows_with_zeros(rng, n, with_zero))
        for k in sorted({1, 2, 5, n - 1} & set(range(1, n))):
            expected = np.partition(D, k, axis=1)[:, k]
            assert np.array_equal(core_distances(D, k), expected)

    def test_result_owns_its_memory(self, rng):
        # a view would keep the partitioned n x n copy alive
        cores = core_distances(pairwise_cosine_distances(sphere_points(rng, 50)), 3)
        assert cores.base is None


class TestMutualReachability:
    def test_distance_dominates(self):
        a, b = np.array([1.0, 0.0]), np.array([0.1, 1.0])
        d = cosine_distance(a, b)  # about 0.9
        assert d > 0.3
        M = reach_matrix(np.array([a, b]), [0.2, 0.3])
        assert M[0, 1] == pytest.approx(d)
        assert M[0, 1] == pytest.approx(mutual_reachability(a, b, 0.2, 0.3), abs=1e-12)

    def test_core_dominates(self):
        a, b = np.array([1.0, 0.0]), np.array([1.0, 0.05])
        M = reach_matrix(np.array([a, b]), [0.5, 0.3])
        assert M[0, 1] == M[1, 0] == mutual_reachability(a, b, 0.5, 0.3) == 0.5

    def test_symmetry(self, rng):
        pts = rng.normal(size=(50, 4))
        cores = rng.random(50)
        M = reach_matrix(pts, cores)
        assert np.array_equal(M, M.T)
        for i in range(50):
            for j in range(i + 1, 50):
                expected = mutual_reachability(pts[i], pts[j], cores[i], cores[j])
                assert M[i, j] == pytest.approx(expected, abs=1e-12)

    def test_never_below_distance(self, rng):
        pts = sphere_points(rng, 30)
        D = pairwise_cosine_distances(pts)
        cores = core_distances(D, 3)
        M = D.copy()
        build_mst(M, cores)
        for i in range(30):
            for j in range(i + 1, 30):
                m = mutual_reachability(pts[i], pts[j], cores[i], cores[j])
                assert M[i, j] == pytest.approx(m, abs=1e-12)
                assert M[i, j] >= D[i, j]

    def test_matrix_helper_matches_scalar(self, rng):
        pts = sphere_points(rng, 20)
        M = pairwise_cosine_distances(pts)
        cores = core_distances(M, 2)
        build_mst(M, cores)  # overwrites M with mutual reachability
        for i in range(20):
            assert M[i, i] == 0.0
            for j in range(i + 1, 20):
                expected = mutual_reachability(pts[i], pts[j], cores[i], cores[j])
                assert M[i, j] == pytest.approx(expected, abs=1e-12)


class TestBuildMst:
    def test_two_points_single_edge(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        D = pairwise_cosine_distances(pts)
        edges = build_mst(D, core_distances(D, 1))
        assert len(edges) == 1
        u, v, w = edges[0]
        assert {u, v} == {0, 1}
        assert w == pytest.approx(1.0)

    def test_total_weight_matches_kruskal(self, rng):
        from oracles import _kruskal

        for n in (10, 60, 200):
            pts = sphere_points(rng, n)
            D = pairwise_cosine_distances(pts)
            cores = core_distances(D, 4)
            edges = build_mst(D.copy(), cores)
            M = np.maximum(D, np.maximum.outer(cores, cores))
            np.fill_diagonal(M, 0.0)
            pairs = [(M[i, j], i, j) for i in range(n) for j in range(i + 1, n)]
            oracle = _kruskal(n, pairs)
            assert sum(w for _, _, w in edges) == pytest.approx(
                sum(w for w, _, _ in oracle), rel=1e-10
            )

    def test_tree_structure(self, rng):
        pts = sphere_points(rng, 25)
        D = pairwise_cosine_distances(pts)
        edges = build_mst(D, core_distances(D, 3))
        assert len(edges) == 24
        parent = list(range(25))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v, _ in edges:
            ru, rv = find(u), find(v)
            assert ru != rv  # acyclic
            parent[ru] = rv
        assert len({find(i) for i in range(25)}) == 1  # connected

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            build_mst(pairwise_cosine_distances(np.zeros((1, 3))), np.zeros(1))

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("n", [2, 3, _BLOCK + 1, 257, 1200])
    def test_edges_identical_to_reference_prim(self, rng, n, grid):
        if grid:
            # small integer coordinates: few distinct distances, many ties
            pts = rng.integers(-2, 3, size=(n, 4)).astype(float)
            pts[~pts.any(axis=1), 0] = 1.0
        else:
            pts = rng.normal(size=(n, 8))
        D = pairwise_cosine_distances(pts)
        cores = core_distances(D, min(5, n - 1))
        M = np.maximum(D, np.maximum.outer(cores, cores))
        np.fill_diagonal(M, 0.0)
        edges = build_mst(D, cores)
        assert np.array_equal(D, M)
        assert edges == reference_prim(M)


class TestExtractClusters:
    def test_two_well_separated_blobs(self, rng):
        pts = two_blobs(rng, per_blob=20)
        assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=5))
        assert assignment.n_clusters == 2
        assert assignment.n_noise == 0
        assert len(set(assignment.labels[:20])) == 1
        assert len(set(assignment.labels[20:])) == 1

    def test_uniform_sphere_mostly_noise(self):
        rng = np.random.default_rng(5)
        pts = sphere_points(rng, 30, dim=16)
        assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=10))
        assert assignment.n_noise >= 15

    def test_identical_points_single_cluster(self):
        pts = np.tile(np.array([1.0, 2.0, 0.5]), (8, 1))
        assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=5))
        assert assignment.n_clusters == 1
        assert np.all(assignment.labels == 0)

    def test_identical_points_below_min_size_noise(self):
        pts = np.tile(np.array([1.0, 2.0]), (3, 1))
        assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=5))
        assert assignment.n_clusters == 0
        assert np.all(assignment.labels == -1)

    def test_stabilities_reported_for_selected_clusters(self, rng):
        pts = two_blobs(rng)
        assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=5))
        assert set(assignment.stabilities) == {0, 1}
        assert all(v >= 0.0 for v in assignment.stabilities.values())

    def test_hierarchy_records_present(self, rng):
        pts = two_blobs(rng)
        assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=5))
        assert assignment.hierarchy
        points_seen = {rec.child for rec in assignment.hierarchy if rec.size == 1}
        assert points_seen == set(range(40))


class TestCluster:
    def test_cluster_size_floor_respected(self, rng):
        for trial in range(5):
            pts = sphere_points(np.random.default_rng(trial), 60, dim=6)
            assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=5))
            labels = assignment.labels
            for label in range(assignment.n_clusters):
                assert np.sum(labels == label) >= 5

    def test_permutation_invariance(self, rng):
        pts = two_blobs(rng, per_blob=15)
        params = ClusterParams(min_cluster_size=5)
        base = cluster(embedding_of(pts), params)
        perm = rng.permutation(len(pts))
        permuted = cluster(embedding_of(pts[perm]), params)
        base_partition = {
            frozenset(np.flatnonzero(base.labels == c).tolist())
            for c in range(base.n_clusters)
        }
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        permuted_partition = {
            frozenset(perm[np.flatnonzero(permuted.labels == c)].tolist())
            for c in range(permuted.n_clusters)
        }
        assert base_partition == permuted_partition

    def test_zero_rows_forced_noise(self, rng):
        pts = two_blobs(rng, per_blob=10)
        pts = np.vstack([pts, np.zeros((3, pts.shape[1]))])
        assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=5))
        assert np.all(assignment.labels[-3:] == -1)
        assert assignment.n_clusters == 2

    def test_single_point_is_noise(self):
        assignment = cluster(embedding_of(np.array([[1.0, 0.0]])), ClusterParams())
        assert assignment.labels.tolist() == [-1]

    def test_one_distance_matrix_per_call(self, rng, monkeypatch):
        import fraudrings.clustering as clustering

        calls = []
        real = clustering.pairwise_cosine_distances

        def counting(points):
            calls.append(len(points))
            return real(points)

        monkeypatch.setattr(clustering, "pairwise_cosine_distances", counting)
        cluster(embedding_of(two_blobs(rng)), ClusterParams(min_cluster_size=5))
        assert calls == [40]

    def test_peak_memory_one_distance_matrix(self):
        # numpy reports its buffers to tracemalloc; a second n x n float64
        # buffer anywhere in the call would reach 2 x 8 n^2 bytes
        n = 1000
        emb = embedding_of(sphere_points(np.random.default_rng(11), n))
        # count only this call, and leave tracing on if the session had it on
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            cluster(emb, ClusterParams(min_cluster_size=5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak - base < 1.5 * 8 * n * n

    def test_deterministic(self, rng):
        pts = sphere_points(rng, 50)
        a = cluster(embedding_of(pts), ClusterParams())
        b = cluster(embedding_of(pts), ClusterParams())
        assert np.array_equal(a.labels, b.labels)

    def test_matches_reference_implementation(self):
        for trial in range(10):
            rng = np.random.default_rng(300 + trial)
            n = int(rng.integers(12, 80))
            if trial % 2 == 0:
                pts = sphere_points(rng, n, dim=8)
            else:
                pts = two_blobs(rng, per_blob=n // 2, dim=8, spread=0.05)
            params = ClusterParams(min_cluster_size=5)
            mine = cluster(embedding_of(pts), params)
            ref = reference_hdbscan(pts, 5, params.effective_min_samples)
            assert np.array_equal(mine.labels, ref)

    def test_min_samples_clamped_for_tiny_inputs(self):
        pts = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0]])
        assignment = cluster(embedding_of(pts), ClusterParams(min_cluster_size=2, min_samples=10))
        assert len(assignment.labels) == 3

    def test_barbell_embedding_recovers_cliques(self):
        # end to end: embed two 5-cliques joined by a weak bridge, then cluster
        from fraudrings.embedding import EmbeddingConfig, embed_graph
        from helpers import ring_graph

        edges = []
        for base in (0, 5):
            for a in range(5):
                for b in range(a + 1, 5):
                    edges.append((base + a, base + b, 1.0))
        edges.append((0, 5, 0.1))
        g = ring_graph(edges, 10)
        emb = embed_graph(g, EmbeddingConfig(dim_total=32, samples_per_epoch=2000, seed=1))
        assignment = cluster(emb, ClusterParams(min_cluster_size=3, min_samples=2))
        assert assignment.n_clusters == 2
        assert len({int(l) for l in assignment.labels[:5]}) == 1
        assert len({int(l) for l in assignment.labels[5:]}) == 1
        assert assignment.labels[0] != assignment.labels[5]


class TestClusterParams:
    def test_min_cluster_size_floor(self):
        with pytest.raises(ValueError):
            ClusterParams(min_cluster_size=1)

    def test_min_samples_default(self):
        assert ClusterParams(min_cluster_size=7).effective_min_samples == 7
        assert ClusterParams(min_cluster_size=7, min_samples=3).effective_min_samples == 3


class TestClusterIO:
    def test_round_trip_with_summary_comments(self):
        assignment = ClusterAssignment(labels=np.array([0, 0, -1, 1, 1, 1]))
        buf = io.StringIO()
        write_cluster_assignment(assignment, buf)
        text = buf.getvalue()
        assert "# clusters 2" in text
        assert "# noise 1" in text
        back = read_cluster_assignment(text.splitlines())
        assert back.labels.tolist() == [0, 0, -1, 1, 1, 1]

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            (["0\t0", "1\t1", "1\t0"], 3),  # repeated row: the later one must not win
            (["0\t0", "1\t-7", "2\t0"], 2),  # -1 is the only noise label
            (["0\t0", "1\t5"], 2),  # two clusters must be labelled 0 and 1
            (["0\t1", "1\t-1", "2\t1"], 1),  # one cluster must be labelled 0
        ],
    )
    def test_bad_row_rejected_with_line_number(self, lines, bad_line):
        with pytest.raises(GraphParseError) as exc:
            read_cluster_assignment(lines)
        assert exc.value.line_number == bad_line
