"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line through the terminal-summary hook in
conftest.  Criteria with runtime budgets assert them explicitly.
"""

import gc
import math
import time

import numpy as np
import pytest
import scipy.stats

from fraudrings.clustering import ClusterParams, cluster
from fraudrings.embedding import (
    AliasTable,
    CombinedEmbedding,
    EmbeddingConfig,
    EmbeddingMatrix,
    _noise_weights,
    embed_graph,
    second_order_negative_gradients,
    second_order_negative_objective,
)
from fraudrings.evaluation import (
    SynthConfig,
    coverage,
    generate,
    hard_only_labels,
    precision,
    purity,
)
from fraudrings.graph import (
    HardLink,
    HeterogeneousGraph,
    SoftLink,
    ingest_edges,
    transform,
)
from fraudrings.incremental import PipelineState, replay_events

from helpers import (
    accumulated_graph,
    canonical_partition,
    random_event_log,
    random_hetero_graph,
    ring_graph,
)
from oracles import bfs_partition, direct_soft_aggregation, partition_sets, reference_hdbscan


def canonical_weights(transformed):
    out = {}
    for i, j, w in transformed.edges:
        a = transformed.super_nodes[i].members[0]
        b = transformed.super_nodes[j].members[0]
        out[(min(a, b), max(a, b))] = w
    return out


def test_c01_transform_oracle_equivalence():
    """Super-node partitions and aggregated weights match the brute-force
    oracle exactly on 200 random graphs, within 10 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(200):
        g = random_hetero_graph(rng, max_accounts=1000)
        t = transform(g)
        oracle_labels = bfs_partition(g.num_accounts, [(h.u, h.v) for h in g.hard_links])
        assert canonical_partition(t.membership) == partition_sets(oracle_labels)
        assert canonical_weights(t) == direct_soft_aggregation(oracle_labels, g.soft_links)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"transform oracle sweep took {elapsed:.1f}s"


def test_c02_reference_topology_fixture():
    """The canonical two-component example yields exactly the expected
    partition with two soft-link-only singletons."""
    hard = [
        "A1\tphone\tA2",
        "A1\temail\tA4",
        "A4\tcredit_card\tA5",
        "A6\tphone\tA7",
        "A7\tnational_id\tA9",
        "A9\tbank_account\tA10",
        "A10\temail\tA11",
    ]
    soft = [
        "A2\tdevice_fingerprint\tA3",
        "A3\tip_address\tA7",
        "A5\tdevice_fingerprint\tA6",
        "A4\tcookie\tA9",
        "A8\tip_address\tA10",
    ]
    g = ingest_edges(hard, soft)
    t = transform(g)
    token_sets = {frozenset(g.tokens[a] for a in sn.members) for sn in t.super_nodes}
    assert token_sets == {
        frozenset({"A1", "A2", "A4", "A5"}),
        frozenset({"A6", "A7", "A9", "A10", "A11"}),
        frozenset({"A3"}),
        frozenset({"A8"}),
    }


def test_c03_order_independence():
    """50 shuffles of the hard links of a 500-node graph produce one
    canonical partition."""
    rng = np.random.default_rng(303)
    n = 500
    tokens = [f"t{i}" for i in range(n)]
    hard = []
    for _ in range(600):
        u, v = rng.integers(0, n, 2)
        if u != v:
            hard.append(HardLink(min(u, v), max(u, v), "phone"))
    base = HeterogeneousGraph.from_links(tokens, hard, [])
    expected = canonical_partition(transform(base).membership)
    for _ in range(50):
        perm = rng.permutation(len(hard))
        shuffled = HeterogeneousGraph.from_links(tokens, [hard[i] for i in perm], [])
        assert canonical_partition(transform(shuffled).membership) == expected


def test_c04_gradient_check():
    """Analytic gradients of the negative-sampling objective match central
    finite differences to relative error 1e-4 on 20 random configurations."""
    rng = np.random.default_rng(404)
    h = 1e-5
    for _ in range(20):
        n, d, k = 10, 8, 5
        vertex = rng.normal(scale=0.7, size=(n, d))
        context = rng.normal(scale=0.7, size=(n, d))
        i, j = 0, 1
        negatives = [int(x) for x in rng.integers(2, n, size=k)]
        emb = EmbeddingMatrix(vertex, context)
        g_vi, g_cj, g_cn = second_order_negative_gradients(i, j, negatives, emb)

        def value(vrt, ctx):
            return second_order_negative_objective(i, j, negatives, EmbeddingMatrix(vrt, ctx))

        def fd(base_v, base_c, which, row):
            grad = np.zeros(d)
            for a in range(d):
                up_v, up_c = base_v.copy(), base_c.copy()
                dn_v, dn_c = base_v.copy(), base_c.copy()
                if which == "v":
                    up_v[row, a] += h
                    dn_v[row, a] -= h
                else:
                    up_c[row, a] += h
                    dn_c[row, a] -= h
                grad[a] = (value(up_v, up_c) - value(dn_v, dn_c)) / (2 * h)
            return grad

        fd_vi = fd(vertex, context, "v", i)
        assert np.linalg.norm(g_vi - fd_vi) <= 1e-4 * max(np.linalg.norm(fd_vi), 1e-8)
        fd_cj = fd(vertex, context, "c", j)
        assert np.linalg.norm(g_cj - fd_cj) <= 1e-4 * max(np.linalg.norm(fd_cj), 1e-8)
        summed: dict[int, np.ndarray] = {}
        for row, neg in zip(g_cn, negatives):
            summed[neg] = summed.get(neg, np.zeros(d)) + row
        for neg in sorted(summed):
            fd_cn = fd(vertex, context, "c", neg)
            assert np.linalg.norm(summed[neg] - fd_cn) <= 1e-4 * max(
                np.linalg.norm(fd_cn), 1e-8
            )


def test_c05_alias_sampling_fidelity():
    """A million alias draws over 100 weights pass chi-square at p > 0.01,
    and the degree^(3/4) sampler matches the 8:1 closed form within 0.01."""
    rng = np.random.default_rng(505)
    weights = rng.uniform(0.1, 10.0, size=100)
    table = AliasTable(weights)
    draws = table.sample_array(np.random.default_rng(1), 1_000_000)
    observed = np.bincount(draws, minlength=100)
    expected = weights / weights.sum() * 1_000_000
    result = scipy.stats.chisquare(observed, expected)
    assert result.pvalue > 0.01, f"chi-square p={result.pvalue:.4f}"

    g = ring_graph([(0, 1, 16.0), (0, 2, 1.0)], 3)  # node degrees 17, 16, 1
    draws = AliasTable(_noise_weights(g)).sample_array(np.random.default_rng(2), 1_000_000)
    n1 = int(np.sum(draws == 1))
    n2 = int(np.sum(draws == 2))
    assert abs(n1 / (n1 + n2) - 8.0 / 9.0) < 0.01


def test_c06_structural_separation():
    """Two planted blocks of 50 super-nodes separate by a mean cosine margin
    of at least 0.1 under default training, within 60 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 100
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < 50) == (j < 50)
            if rng.random() < (0.3 if same else 0.01):
                edges.append((i, j, 1.0))
    g = ring_graph(edges, n)
    emb = embed_graph(g, EmbeddingConfig(seed=7))
    vectors = emb.vectors
    sims = vectors @ vectors.T
    upper = np.triu_indices(50, 1)
    intra = np.concatenate([sims[:50, :50][upper], sims[50:, 50:][upper]])
    inter = sims[:50, 50:].ravel()
    margin = float(intra.mean() - inter.mean())
    elapsed = time.perf_counter() - start
    assert margin >= 0.1, f"separation margin {margin:.3f}"
    assert elapsed < 60.0, f"structural separation took {elapsed:.1f}s"


def test_c07_hdbscan_oracle_equivalence():
    """Full clustering matches the brute-force reference (all-pairs matrix,
    Kruskal tree, recursive stability) on 50 random embeddings."""
    for trial in range(50):
        rng = np.random.default_rng(700 + trial)
        n = int(rng.integers(10, 201))
        if trial % 3 == 0:
            pts = rng.normal(size=(n, 10))
        elif trial % 3 == 1:
            half = n // 2
            c1 = rng.normal(size=10)
            c2 = -c1
            pts = np.vstack(
                [
                    c1 + 0.05 * rng.normal(size=(half, 10)),
                    c2 + 0.05 * rng.normal(size=(n - half, 10)),
                ]
            )
        else:
            centers = rng.normal(size=(4, 10))
            pts = np.vstack(
                [centers[rng.integers(0, 4)] + 0.1 * rng.normal(size=10) for _ in range(n)]
            )
        params = ClusterParams(min_cluster_size=5)
        emb = CombinedEmbedding(
            vectors=pts, normalized=False, zero_rows=np.zeros(n, dtype=bool)
        )
        mine = cluster(emb, params)
        ref = reference_hdbscan(pts, 5, params.effective_min_samples)
        assert np.array_equal(mine.labels, ref), f"trial {trial} diverged"


@pytest.fixture(scope="module")
def planted_ring_runs():
    start = time.perf_counter()
    runs = []
    for seed in range(5):
        cfg = SynthConfig(
            n_legit=1000,
            n_rings=20,
            ring_size_range=(5, 15),
            soft_link_density_in_ring=0.5,
            background_soft_noise=0.001,
            seed=seed,
        )
        g, truth = generate(cfg)
        t = transform(g)
        emb = embed_graph(t, EmbeddingConfig(seed=seed))
        assignment = cluster(emb, ClusterParams())
        runs.append((t, truth, assignment))
    return runs, time.perf_counter() - start


def test_c08_planted_ring_recovery(planted_ring_runs):
    """Coverage, precision, and purity each average at least 0.8 over five
    seeded planted-ring benchmarks, within 5 minutes."""
    runs, elapsed = planted_ring_runs
    covs, precs, purs = [], [], []
    for t, truth, assignment in runs:
        covs.append(coverage(assignment, truth, t.membership))
        precs.append(precision(assignment, truth, t.membership))
        purs.append(purity(assignment, truth, t.membership))
    assert float(np.mean(covs)) >= 0.8, f"coverage {np.mean(covs):.3f} {covs}"
    assert float(np.mean(precs)) >= 0.8, f"precision {np.mean(precs):.3f} {precs}"
    assert float(np.mean(purs)) >= 0.8, f"purity {np.mean(purs):.3f} {purs}"
    assert elapsed < 300.0, f"planted-ring suite took {elapsed:.1f}s"


def test_c09_hard_link_ablation_direction(planted_ring_runs):
    """Hard-link-only clustering strictly underperforms the full pipeline on
    coverage while precision stays comparable."""
    runs, _ = planted_ring_runs
    full_cov, hard_cov, hard_prec = [], [], []
    for t, truth, assignment in runs:
        full_cov.append(coverage(assignment, truth, t.membership))
        baseline = hard_only_labels(t, ClusterParams().min_cluster_size)
        hard_cov.append(coverage(baseline, truth, t.membership))
        p = precision(baseline, truth, t.membership)
        if p is not None:
            hard_prec.append(p)
    for full, hard in zip(full_cov, hard_cov):
        assert hard < full
    assert float(np.mean(hard_cov)) < float(np.mean(full_cov))
    assert hard_prec and float(np.mean(hard_prec)) >= 0.8


def test_c10_incremental_batch_equivalence():
    """Replaying 100 random event logs matches batch transformation of the
    accumulated raw links exactly (partition and undecayed weights)."""
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        events = random_event_log(rng)
        state = PipelineState(dim=4, online_samples_per_edge=0)
        replay_events(state, events)
        incremental = state.snapshot(decayed=False)[0]
        batch = transform(accumulated_graph(events))
        assert canonical_partition(incremental.membership) == canonical_partition(
            batch.membership
        )
        assert canonical_weights(incremental) == canonical_weights(batch)


def test_c11_decay_arithmetic():
    """One unit of weight over 100 days at the default rate decays to
    0.367879 within 1e-6."""
    state = PipelineState(dim=2, online_samples_per_edge=0)
    from fraudrings.incremental import apply_decay, apply_new_account, apply_soft_link

    apply_new_account(state, "a")
    apply_new_account(state, "b")
    apply_soft_link(state, SoftLink(0, 1, "cookie", 1.0, 0.0))
    apply_decay(state, 100.0)
    assert state.effective_weight((0, 1)) == pytest.approx(0.367879, abs=1e-6)


def test_c12_size_weighted_merge():
    """Merging sizes (3, 1) with unit axis embeddings yields the
    pre-normalization vector (0.75, 0.25) to 1e-12."""
    from fraudrings.incremental import apply_hard_link, apply_new_account

    state = PipelineState(dim=2, online_samples_per_edge=0)
    for token in ("a", "b", "c", "d"):
        apply_new_account(state, token)
    apply_hard_link(state, HardLink(0, 1, "phone"))
    apply_hard_link(state, HardLink(1, 2, "phone"))
    big = state.slot_of_account(0)
    small = state.slot_of_account(3)
    state.embedding[big] = np.array([1.0, 0.0])
    state.embedding[small] = np.array([0.0, 1.0])
    apply_hard_link(state, HardLink(0, 3, "email"))
    merged = state.embedding[state.slot_of_account(0)]
    pre_normalization = np.array([0.75, 0.25])
    np.testing.assert_allclose(
        merged, pre_normalization / np.linalg.norm(pre_normalization), atol=1e-12
    )
    # the merged direction is exactly the pre-normalization vector's
    recovered = merged / merged.sum()
    np.testing.assert_allclose(recovered, pre_normalization, atol=1e-12)


def test_c13_complexity_scaling():
    """Transform runtime grows about linearly in graph size: the fitted
    log-log exponent over 1e3..1e6 edges stays below 1.3."""
    sizes = []
    times = []
    for n_edges in (1_000, 10_000, 100_000, 1_000_000):
        rng = np.random.default_rng(n_edges)
        n_accounts = max(2, n_edges // 2)
        tokens = [f"a{i}" for i in range(n_accounts)]
        n_hard = n_edges // 3
        hard_u = rng.integers(0, n_accounts, n_hard)
        hard_v = rng.integers(0, n_accounts, n_hard)
        soft_u = rng.integers(0, n_accounts, n_edges - n_hard)
        soft_v = rng.integers(0, n_accounts, n_edges - n_hard)
        hard = [
            HardLink(int(u), int(v), "phone")
            for u, v in zip(hard_u, hard_v)
            if u != v
        ]
        soft = [
            SoftLink(int(u), int(v), "cookie", 1.0)
            for u, v in zip(soft_u, soft_v)
            if u != v
        ]
        g = HeterogeneousGraph(tokens, hard, soft)  # already index-valid
        reps = 3 if n_edges <= 100_000 else 2
        best = math.inf
        gc.disable()  # keep collector pauses out of the measurement
        try:
            for _ in range(reps):
                t0 = time.perf_counter()
                transform(g)
                best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        sizes.append(n_accounts + len(hard) + len(soft))
        times.append(best)
    exponent = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    assert exponent < 1.3, f"fitted exponent {exponent:.2f} over sizes {sizes}"
