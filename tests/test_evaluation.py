"""Synthetic generator determinism and the detection metrics."""

import io

import numpy as np
import pytest

from fraudrings.evaluation import (
    GroundTruth,
    SynthConfig,
    SynthConfigError,
    coverage,
    format_metrics,
    generate,
    hard_only_labels,
    precision,
    purity,
    read_ground_truth,
    transform_stats,
    write_ground_truth,
)
from fraudrings.graph import HeterogeneousGraph, SoftLink, transform


class TestGenerate:
    def test_no_rings_empty_truth(self):
        g, truth = generate(SynthConfig(n_legit=50, n_rings=0, seed=1))
        assert truth.fraud_accounts == set()
        assert g.num_accounts == 50

    def test_full_density_ring_is_clique(self):
        cfg = SynthConfig(
            n_legit=0,
            n_rings=1,
            ring_size_range=(5, 5),
            soft_link_density_in_ring=1.0,
            background_soft_noise=0.0,
            hard_ring_fraction=0.0,
            seed=3,
        )
        g, truth = generate(cfg)
        assert len(truth.fraud_accounts) == 5
        linked = {(min(s.u, s.v), max(s.u, s.v)) for s in g.soft_links}
        expected = {(a, b) for a in range(5) for b in range(a + 1, 5)}
        assert linked == expected

    def test_fraud_count_is_sum_of_ring_sizes(self):
        cfg = SynthConfig(n_legit=100, n_rings=6, seed=7)
        g, truth = generate(cfg)
        assert len(truth.fraud_accounts) == g.num_accounts - 100
        assert set(truth.ring_of.values()) <= set(range(6))

    def test_deterministic_under_fixed_seed(self):
        a, _ = generate(SynthConfig(seed=11, n_legit=200, n_rings=5))
        b, _ = generate(SynthConfig(seed=11, n_legit=200, n_rings=5))
        assert a.tokens == b.tokens
        assert a.hard_links == b.hard_links
        assert a.soft_links == b.soft_links

    def test_soft_only_rings_exist(self):
        g, truth = generate(SynthConfig(seed=2))
        fraud_with_hard = set()
        for link in g.hard_links:
            for end in (link.u, link.v):
                if end in truth.fraud_accounts:
                    fraud_with_hard.add(truth.ring_of[end])
        assert set(truth.ring_of.values()) - fraud_with_hard  # soft-only rings

    def test_rings_internally_connected_by_soft_links(self):
        g, truth = generate(SynthConfig(seed=4, n_legit=0, background_soft_noise=0.0))
        adjacency = {}
        for link in g.soft_links:
            adjacency.setdefault(link.u, set()).add(link.v)
            adjacency.setdefault(link.v, set()).add(link.u)
        rings = {}
        for account, ring in truth.ring_of.items():
            rings.setdefault(ring, set()).add(account)
        for members in rings.values():
            seen = {next(iter(members))}
            frontier = list(seen)
            while frontier:
                x = frontier.pop()
                for y in adjacency.get(x, ()):
                    if y in members and y not in seen:
                        seen.add(y)
                        frontier.append(y)
            assert seen == members

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ring_size_range": (1, 5)},
            {"ring_size_range": (8, 5)},
            {"soft_link_density_in_ring": 1.5},
            {"background_soft_noise": -0.1},
            {"n_legit": -1},
        ],
    )
    def test_infeasible_configs_rejected(self, kwargs):
        with pytest.raises(SynthConfigError):
            SynthConfig(**kwargs)


def toy_setup():
    """4 accounts in 3 super-nodes; accounts 0,1 fraud ring 0; account 2 fraud ring 1."""
    membership = np.array([0, 0, 1, 2])
    truth = GroundTruth(fraud_accounts={0, 1, 2}, ring_of={0: 0, 1: 0, 2: 1})
    return membership, truth


class TestCoverage:
    def test_all_fraud_clustered(self):
        membership, truth = toy_setup()
        labels = np.array([0, 1, -1])
        assert coverage(labels, truth, membership) == pytest.approx(1.0)

    def test_everything_noise(self):
        membership, truth = toy_setup()
        labels = np.array([-1, -1, -1])
        assert coverage(labels, truth, membership) == 0.0

    def test_empty_truth_not_applicable(self):
        membership, _ = toy_setup()
        truth = GroundTruth(fraud_accounts=set(), ring_of={})
        assert coverage(np.array([0, 0, 0]), truth, membership) is None

    def test_matches_set_arithmetic_oracle(self, rng):
        for _ in range(20):
            n_accounts = 40
            membership = rng.integers(0, 10, n_accounts)
            labels = rng.integers(-1, 3, 10)
            fraud = {int(x) for x in rng.choice(n_accounts, 12, replace=False)}
            truth = GroundTruth(fraud_accounts=fraud, ring_of={a: 0 for a in fraud})
            got = coverage(labels, truth, membership)
            expected = sum(1 for a in fraud if labels[membership[a]] >= 0) / len(fraud)
            assert got == pytest.approx(expected)

    def test_monotone_in_declared_clusters(self, rng):
        membership = rng.integers(0, 10, 40)
        fraud = {int(x) for x in rng.choice(40, 15, replace=False)}
        truth = GroundTruth(fraud_accounts=fraud, ring_of={a: 0 for a in fraud})
        labels = np.full(10, -1, dtype=np.int64)
        previous = coverage(labels, truth, membership)
        # declaring one more cluster at a time never loses covered accounts
        for sid in range(10):
            labels = labels.copy()
            labels[sid] = sid
            current = coverage(labels, truth, membership)
            assert current >= previous
            previous = current


class TestPrecision:
    def test_pure_fraud_clusters(self):
        membership, truth = toy_setup()
        labels = np.array([0, 0, -1])  # clusters cover exactly accounts 0,1,2
        assert precision(labels, truth, membership) == pytest.approx(1.0)

    def test_only_legit_clustered(self):
        membership = np.array([0, 1])
        truth = GroundTruth(fraud_accounts={0}, ring_of={0: 0})
        labels = np.array([-1, 0])
        assert precision(labels, truth, membership) == 0.0

    def test_nothing_clustered_not_applicable(self):
        membership, truth = toy_setup()
        assert precision(np.array([-1, -1, -1]), truth, membership) is None

    def test_matches_confusion_matrix_oracle(self, rng):
        for _ in range(20):
            membership = rng.integers(0, 8, 30)
            labels = rng.integers(-1, 2, 8)
            fraud = {int(x) for x in rng.choice(30, 9, replace=False)}
            truth = GroundTruth(fraud_accounts=fraud, ring_of={a: 0 for a in fraud})
            clustered = [a for a in range(30) if labels[membership[a]] >= 0]
            if not clustered:
                assert precision(labels, truth, membership) is None
                continue
            tp = sum(1 for a in clustered if a in fraud)
            assert precision(labels, truth, membership) == pytest.approx(tp / len(clustered))


class TestPurity:
    def test_perfect_ring_clusters(self):
        membership, truth = toy_setup()
        labels = np.array([0, 1, -1])  # cluster 0 = ring 0, cluster 1 = ring 1
        assert purity(labels, truth, membership) == pytest.approx(1.0)

    def test_half_and_half_cluster(self):
        membership = np.array([0, 1])
        truth = GroundTruth(fraud_accounts={0, 1}, ring_of={0: 0, 1: 1})
        labels = np.array([0, 0])
        assert purity(labels, truth, membership) == pytest.approx(0.5)

    def test_legit_accounts_get_unique_pseudo_labels(self):
        membership = np.array([0, 1, 2])
        truth = GroundTruth(fraud_accounts={0}, ring_of={0: 4})
        labels = np.array([0, 0, 0])  # one cluster of one fraud + two legit
        assert purity(labels, truth, membership) == pytest.approx(1.0 / 3.0)

    def test_no_clusters_not_applicable(self):
        membership, truth = toy_setup()
        assert purity(np.array([-1, -1, -1]), truth, membership) is None

    def test_matches_histogram_oracle(self, rng):
        for _ in range(20):
            membership = rng.integers(0, 8, 30)
            labels = rng.integers(-1, 3, 8)
            fraud = {int(x) for x in rng.choice(30, 10, replace=False)}
            ring_of = {a: int(rng.integers(0, 3)) for a in fraud}
            truth = GroundTruth(fraud_accounts=fraud, ring_of=ring_of)
            by_cluster = {}
            for a in range(30):
                lab = labels[membership[a]]
                if lab >= 0:
                    by_cluster.setdefault(lab, []).append(a)
            if not by_cluster:
                assert purity(labels, truth, membership) is None
                continue
            scores = []
            for members in by_cluster.values():
                counts = {}
                for a in members:
                    key = ring_of.get(a, f"legit{a}")
                    counts[key] = counts.get(key, 0) + 1
                scores.append(max(counts.values()) / len(members))
            assert purity(labels, truth, membership) == pytest.approx(np.mean(scores))


class TestHardOnlyLabels:
    def test_threshold_respected(self):
        g, _ = generate(SynthConfig(seed=5))
        t = transform(g)
        labels = hard_only_labels(t, 5)
        for sn in t.super_nodes:
            if sn.size >= 5:
                assert labels[sn.id] >= 0
            else:
                assert labels[sn.id] == -1
        positive = labels[labels >= 0]
        assert len(set(positive.tolist())) == len(positive)  # one cluster per super-node


class TestTransformStats:
    def test_no_hard_links_ratio_one(self):
        g = HeterogeneousGraph.from_links(
            ["a", "b", "c"], [], [SoftLink(0, 1, "cookie", 1.0)]
        )
        stats = transform_stats(g, transform(g))
        assert stats.node_reduction_ratio == pytest.approx(1.0)
        assert stats.nodes_before == stats.nodes_after == 3

    def test_degree_recount(self, rng):
        g, _ = generate(SynthConfig(seed=9, n_legit=200, n_rings=4))
        t = transform(g)
        stats = transform_stats(g, t)
        degrees = np.zeros(t.num_supernodes)
        for i, j, _ in t.edges:
            degrees[i] += 1
            degrees[j] += 1
        assert stats.avg_degree_after == pytest.approx(degrees.mean())

    def test_histogram_fractions(self):
        g, _ = generate(SynthConfig(seed=12, n_legit=300, n_rings=5))
        t = transform(g)
        stats = transform_stats(g, t)
        total = stats.singleton_fraction + stats.small_fraction + stats.large_fraction
        assert total == pytest.approx(1.0)
        assert stats.max_supernode_size == max(sn.size for sn in t.super_nodes)

    def test_report_lines_are_flat_key_values(self):
        g, _ = generate(SynthConfig(seed=1, n_legit=50, n_rings=2))
        stats = transform_stats(g, transform(g))
        for line in stats.lines():
            key, _, value = line.partition("=")
            assert key and value


class TestMetricsFormatting:
    def test_four_decimal_places(self):
        lines = format_metrics(1.0, 0.87654, None)
        assert lines == ["coverage=1.0000", "precision=0.8765", "purity=n/a"]


class TestGroundTruthIO:
    def test_round_trip(self):
        g, truth = generate(SynthConfig(seed=8, n_legit=30, n_rings=3))
        buf = io.StringIO()
        write_ground_truth(truth, g.tokens, buf)
        back = read_ground_truth(buf.getvalue().splitlines(), g.token_index)
        assert back.ring_of == truth.ring_of
        assert back.fraud_accounts == truth.fraud_accounts

    def test_unknown_token_rejected(self):
        from fraudrings.graph import GraphParseError

        with pytest.raises(GraphParseError):
            read_ground_truth(["ghost\t0"], {"real": 0})

    def test_repeated_token_rejected_with_line_number(self):
        from fraudrings.graph import GraphParseError

        with pytest.raises(GraphParseError) as err:
            read_ground_truth(["a\t0", "b\t1", "a\t1"], {"a": 0, "b": 1})
        assert err.value.line_number == 3
