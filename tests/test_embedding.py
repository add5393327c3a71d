"""Alias sampling, objectives, gradients, and trainer behavior."""

import io
import math

import numpy as np
import pytest

from fraudrings import embedding
from fraudrings.embedding import (
    AliasTable,
    EdgelessGraphError,
    EmbeddingConfig,
    EmbeddingMatrix,
    _noise_weights,
    _sgd_block,
    combine_and_normalize,
    embed_graph,
    first_order_loss,
    read_embedding,
    second_order_negative_gradients,
    second_order_negative_objective,
    sigmoid,
    train_line,
    write_embedding,
)
from fraudrings.graph import GraphParseError

from helpers import ring_graph
from oracles import reference_embedding_text, sequential_sgd_step


class TestAliasTable:
    def test_single_item_always_sampled(self, rng):
        table = AliasTable([1.0])
        draws = table.sample_array(rng, 1000)
        assert np.all(draws == 0)

    def test_uniform_frequencies(self, rng):
        table = AliasTable([1.0, 1.0, 1.0, 1.0])
        draws = table.sample_array(rng, 1_000_000)
        freqs = np.bincount(draws, minlength=4) / 1e6
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_one_three_ratio(self, rng):
        table = AliasTable([1.0, 3.0])
        draws = table.sample_array(rng, 1_000_000)
        assert abs(np.mean(draws == 1) - 0.75) < 0.01

    def test_zero_weight_never_sampled(self, rng):
        table = AliasTable([1.0, 0.0, 2.0])
        draws = table.sample_array(rng, 100_000)
        assert not np.any(draws == 1)

    @pytest.mark.parametrize("weights", [[], [0.0, 0.0], [-1.0, 2.0]])
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            AliasTable(weights)

    def test_scaling_weights_leaves_tables_unchanged(self):
        a = AliasTable([0.5, 2.0, 1.25, 4.0])
        b = AliasTable([5.0, 20.0, 12.5, 40.0])
        np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-12)
        assert np.array_equal(a.aliases, b.aliases)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_large_negative_tiny_but_clean(self):
        v = sigmoid(-50.0)
        assert 0.0 < v < 1e-20
        assert math.isfinite(v)

    def test_symmetry_identity(self):
        assert abs(sigmoid(2.0) - (1.0 - sigmoid(-2.0))) < 1e-12

    def test_extreme_arguments_stay_finite(self):
        with np.errstate(over="raise"):
            values = sigmoid(np.array([-700.0, -36.0, 0.0, 36.0, 700.0]))
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_monotone(self):
        xs = np.linspace(-20, 20, 500)
        assert np.all(np.diff(sigmoid(xs)) > 0)

    def test_array_shape_preserved(self):
        out = sigmoid(np.zeros((3, 2)))
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out, 0.5)


class TestFirstOrderLoss:
    def test_single_edge_orthogonal_vectors(self):
        g = ring_graph([(0, 1, 1.0)], 2)
        emb = EmbeddingMatrix(
            vertex=np.array([[1.0, 0.0], [0.0, 1.0]]),
            context=np.zeros((2, 2)),
        )
        assert first_order_loss(g, emb) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_empty_edges_zero_loss(self):
        g = ring_graph([], 3)
        emb = EmbeddingMatrix(vertex=np.zeros((3, 4)), context=np.zeros((3, 4)))
        assert first_order_loss(g, emb) == 0.0

    def test_matches_scalar_reimplementation(self, rng):
        g = ring_graph([(0, 1, 1.5), (1, 2, 0.25), (0, 2, 2.0)], 3)
        vertex = rng.normal(size=(3, 8))
        emb = EmbeddingMatrix(vertex=vertex, context=np.zeros((3, 8)))
        expected = 0.0
        for i, j, w in g.edges:
            p = 1.0 / (1.0 + math.exp(-float(vertex[i] @ vertex[j])))
            expected += -w * math.log(p)
        assert first_order_loss(g, emb) == pytest.approx(expected, rel=1e-10)

    def test_dimension_mismatch_rejected(self):
        g = ring_graph([(0, 1, 1.0)], 2)
        emb = EmbeddingMatrix(vertex=np.zeros((3, 2)), context=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            first_order_loss(g, emb)


class TestNegativeSamplingObjective:
    def test_all_zero_vectors(self):
        emb = EmbeddingMatrix(vertex=np.zeros((7, 4)), context=np.zeros((7, 4)))
        value = second_order_negative_objective(0, 1, [2, 3, 4, 5, 6], emb)
        assert value == pytest.approx(6.0 * math.log(0.5), abs=1e-12)

    def test_no_negatives_reduces_to_positive_term(self, rng):
        vertex = rng.normal(size=(3, 5))
        context = rng.normal(size=(3, 5))
        emb = EmbeddingMatrix(vertex=vertex, context=context)
        value = second_order_negative_objective(0, 1, [], emb)
        expected = math.log(1.0 / (1.0 + math.exp(-float(context[1] @ vertex[0]))))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        h = 1e-5
        for _ in range(20):
            n, d, k = 8, 6, 4
            vertex = rng.normal(scale=0.8, size=(n, d))
            context = rng.normal(scale=0.8, size=(n, d))
            i, j = 0, 1
            negatives = list(rng.integers(2, n, size=k))

            emb = EmbeddingMatrix(vertex=vertex, context=context)
            g_vi, g_cj, g_cn = second_order_negative_gradients(i, j, negatives, emb)

            def value(vrt, ctx):
                return second_order_negative_objective(
                    i, j, negatives, EmbeddingMatrix(vrt, ctx)
                )

            fd_vi = np.zeros(d)
            for a in range(d):
                up, down = vertex.copy(), vertex.copy()
                up[i, a] += h
                down[i, a] -= h
                fd_vi[a] = (value(up, context) - value(down, context)) / (2 * h)
            assert np.linalg.norm(g_vi - fd_vi) <= 1e-4 * max(np.linalg.norm(fd_vi), 1e-8)

            fd_cj = np.zeros(d)
            for a in range(d):
                up, down = context.copy(), context.copy()
                up[j, a] += h
                down[j, a] -= h
                fd_cj[a] = (value(vertex, up) - value(vertex, down)) / (2 * h)
            assert np.linalg.norm(g_cj - fd_cj) <= 1e-4 * max(np.linalg.norm(fd_cj), 1e-8)

            # negatives can repeat; finite differences see the summed effect
            unique_negs = sorted(set(int(x) for x in negatives))
            summed = {u: np.zeros(d) for u in unique_negs}
            for row, neg in zip(g_cn, negatives):
                summed[int(neg)] += row
            for u in unique_negs:
                fd_cu = np.zeros(d)
                for a in range(d):
                    up, down = context.copy(), context.copy()
                    up[u, a] += h
                    down[u, a] -= h
                    fd_cu[a] = (value(vertex, up) - value(vertex, down)) / (2 * h)
                assert np.linalg.norm(summed[u] - fd_cu) <= 1e-4 * max(
                    np.linalg.norm(fd_cu), 1e-8
                )


class TestSgdBlock:
    """The block kernel against the analytic gradients and per-sample steps."""

    def test_single_pair_takes_lr_times_analytic_gradients(self, rng):
        for _ in range(20):
            n, d, k, lr = 10, 6, 4, 0.05
            vertex = rng.normal(scale=0.7, size=(n, d))
            context = rng.normal(scale=0.7, size=(n, d))
            i, j = 0, 1
            negatives = [int(x) for x in rng.permutation(np.arange(2, n))[:k]]
            g_vi, g_cj, g_cn = second_order_negative_gradients(
                i, j, negatives, EmbeddingMatrix(vertex, context)
            )
            new_v, new_c = vertex.copy(), context.copy()
            _sgd_block(
                new_v, new_c, np.array([i]), np.array([[j, *negatives]]),
                np.full((1, k + 1), lr),
            )
            np.testing.assert_allclose(new_v[i] - vertex[i], lr * g_vi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(new_c[j] - context[j], lr * g_cj, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                new_c[negatives] - context[negatives], lr * g_cn, rtol=0, atol=1e-12
            )
            others = np.setdiff1d(np.arange(n), [j, *negatives])
            assert np.array_equal(new_c[others], context[others])
            assert np.array_equal(np.delete(new_v, i, axis=0), np.delete(vertex, i, axis=0))

    def test_zero_rate_term_is_the_dropped_negative(self, rng):
        n, d, lr = 8, 5, 0.1
        vertex = rng.normal(size=(n, d))
        context = rng.normal(size=(n, d))
        rate = np.full((1, 4), lr)
        rate[0, 2] = 0.0  # the negative 4 is switched off
        new_v, new_c = vertex.copy(), context.copy()
        _sgd_block(new_v, new_c, np.array([0]), np.array([[1, 3, 4, 5]]), rate)
        ref_v, ref_c = vertex.copy(), context.copy()
        sequential_sgd_step(ref_v, ref_c, 0, 1, [3, 5], lr)
        assert np.array_equal(new_c[4], context[4])
        np.testing.assert_allclose(new_v, ref_v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new_c, ref_c, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_disjoint_block_equals_sequential_steps(self, rng, order):
        n, d, k, b = 40, 8, 3, 6
        for _ in range(10):
            vertex = rng.normal(scale=0.5, size=(n, d))
            context = vertex if order == "first" else rng.normal(scale=0.5, size=(n, d))
            rows = rng.permutation(n)[: b * (k + 2)].reshape(b, k + 2)
            src, targets = rows[:, 0], rows[:, 1:]
            lr = rng.uniform(0.01, 0.1, size=b)

            def fresh():
                v = vertex.copy()
                return (v, v) if order == "first" else (v, context.copy())

            blk_v, blk_c = fresh()
            _sgd_block(blk_v, blk_c, src, targets, np.repeat(lr[:, None], k + 1, axis=1))
            seq_v, seq_c = fresh()
            for s in range(b):
                sequential_sgd_step(
                    seq_v, seq_c, int(src[s]), int(targets[s, 0]),
                    [int(x) for x in targets[s, 1:]], float(lr[s]),
                )
            np.testing.assert_allclose(blk_v, seq_v, rtol=0, atol=1e-12)
            np.testing.assert_allclose(blk_c, seq_c, rtol=0, atol=1e-12)


def noise_draws(g, seed: int, n: int) -> np.ndarray:
    """Negative-sample draws as training takes them: ∝ weighted_degree^(3/4)."""
    return AliasTable(_noise_weights(g)).sample_array(np.random.default_rng(seed), n)


class TestNegativeSampler:
    def test_equal_degrees_split_evenly(self):
        g = ring_graph([(0, 1, 1.0)], 2)
        draws = noise_draws(g, 11, 1_000_000)
        assert abs(np.mean(draws == 0) - 0.5) < 0.01

    def test_degree_three_quarters_ratio(self):
        # degrees 16 and 1 via a hub: target frequency 8:1
        g = ring_graph([(0, 1, 16.0), (0, 2, 1.0)], 3)
        # nodes 1 and 2 have weighted degrees 16 and 1
        draws = noise_draws(g, 5, 1_000_000)
        n1 = np.sum(draws == 1)
        n2 = np.sum(draws == 2)
        assert abs(n1 / (n1 + n2) - 8.0 / 9.0) < 0.01

    def test_isolated_node_never_sampled(self):
        g = ring_graph([(0, 1, 2.0)], 3)
        assert not np.any(noise_draws(g, 3, 200_000) == 2)

    def test_zero_degree_graph_rejected(self):
        g = ring_graph([], 4)
        with pytest.raises(ValueError):
            AliasTable(_noise_weights(g))


def two_block_graph(rng, block=20, p_in=0.4, p_out=0.02):
    edges = []
    n = 2 * block
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < block) == (j < block)
            if rng.random() < (p_in if same else p_out):
                edges.append((i, j, 1.0))
    return ring_graph(edges, n)


def block_cosine_margin(vectors, block):
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    unit = vectors / np.where(norms == 0, 1.0, norms)
    sims = unit @ unit.T
    n = vectors.shape[0]
    intra, inter = [], []
    for i in range(n):
        for j in range(i + 1, n):
            (intra if (i < block) == (j < block) else inter).append(sims[i, j])
    return float(np.mean(intra) - np.mean(inter))


class TestTrainLine:
    def test_connected_pair_attracts(self):
        g = ring_graph([(0, 1, 1.0)], 2)
        cfg = EmbeddingConfig(dim_total=16, epochs=10, samples_per_epoch=1000, seed=4)
        emb = train_line(g, "first", cfg)
        assert float(emb.vertex[0] @ emb.vertex[1]) > 0.0

    def test_barbell_second_order_separates_cliques(self):
        edges = []
        for base in (0, 5):
            for a in range(5):
                for b in range(a + 1, 5):
                    edges.append((base + a, base + b, 1.0))
        edges.append((0, 5, 0.1))
        g = ring_graph(edges, 10)
        cfg = EmbeddingConfig(dim_total=32, samples_per_epoch=1000, seed=3)
        emb = train_line(g, "second", cfg)
        assert block_cosine_margin(emb.vertex, 5) > 0.0

    def test_loss_decreases_over_training(self, rng):
        improved = 0
        for trial in range(10):
            g = two_block_graph(np.random.default_rng(100 + trial), block=10)
            cfg = EmbeddingConfig(
                dim_total=16, epochs=5, samples_per_epoch=500, seed=trial
            )
            emb = train_line(g, "first", cfg, track_loss=True)
            assert emb.epoch_losses is not None and len(emb.epoch_losses) == 5
            if emb.epoch_losses[-1] < emb.epoch_losses[0]:
                improved += 1
        assert improved >= 9  # non-increasing in expectation

    def test_second_order_loss_decreases(self):
        g = two_block_graph(np.random.default_rng(7), block=10)
        cfg = EmbeddingConfig(dim_total=16, epochs=5, samples_per_epoch=800, seed=0)
        emb = train_line(g, "second", cfg, track_loss=True)
        assert emb.epoch_losses[-1] < emb.epoch_losses[0]

    def test_single_worker_deterministic(self):
        g = two_block_graph(np.random.default_rng(13), block=8)
        cfg = EmbeddingConfig(dim_total=16, epochs=2, samples_per_epoch=300, seed=21)
        a = train_line(g, "second", cfg)
        b = train_line(g, "second", cfg)
        assert np.array_equal(a.vertex, b.vertex)
        assert np.array_equal(a.context, b.context)

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_same_seed_bit_identical_with_real_blocks(self, order, monkeypatch):
        block_rows = []

        def spy(vertex, context, src, targets, rate):
            block_rows.append(len(src))
            _sgd_block(vertex, context, src, targets, rate)

        monkeypatch.setattr(embedding, "_sgd_block", spy)
        g = two_block_graph(np.random.default_rng(17), block=40)
        cfg = EmbeddingConfig(dim_total=16, epochs=2, samples_per_epoch=2000, seed=8)
        a = train_line(g, order, cfg)
        b = train_line(g, order, cfg)
        # more than one pair per block (first-order blocks hold two rows a pair)
        assert max(block_rows) > 2
        assert np.array_equal(a.vertex, b.vertex)
        assert np.array_equal(a.context, b.context)

    def test_no_nan_at_default_config(self):
        g = two_block_graph(np.random.default_rng(3), block=12)
        emb = train_line(g, "first", EmbeddingConfig(seed=1))
        assert np.all(np.isfinite(emb.vertex))

    def test_edgeless_graph_raises(self):
        g = ring_graph([], 4)
        with pytest.raises(EdgelessGraphError):
            train_line(g, "first", EmbeddingConfig())

    def test_isolated_nodes_get_zero_rows(self):
        g = ring_graph([(0, 1, 1.0)], 3)
        emb = train_line(g, "first", EmbeddingConfig(dim_total=8, seed=2))
        assert np.all(emb.vertex[2] == 0.0)
        assert np.any(emb.vertex[0] != 0.0)

    def test_bad_order_rejected(self):
        g = ring_graph([(0, 1, 1.0)], 2)
        with pytest.raises(ValueError):
            train_line(g, "third", EmbeddingConfig())

    def test_structural_separation_combined(self):
        g = two_block_graph(np.random.default_rng(42), block=25, p_in=0.4, p_out=0.02)
        emb = embed_graph(g, EmbeddingConfig(seed=9))
        assert block_cosine_margin(emb.vectors, 25) > 0.1


class TestCombineAndNormalize:
    def test_three_four_five(self):
        first = EmbeddingMatrix(np.array([[3.0, 0.0]]), np.zeros((1, 2)))
        second = EmbeddingMatrix(np.array([[0.0, 4.0]]), np.zeros((1, 2)))
        combined = combine_and_normalize(first, second)
        np.testing.assert_allclose(combined.vectors, [[0.6, 0.0, 0.0, 0.8]])
        assert combined.normalized

    def test_unit_halves_renormalized(self):
        first = EmbeddingMatrix(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        second = EmbeddingMatrix(np.array([[0.0, 1.0]]), np.zeros((1, 2)))
        combined = combine_and_normalize(first, second)
        assert np.linalg.norm(combined.vectors[0]) == pytest.approx(1.0, abs=1e-12)

    def test_norm_audit_random(self, rng):
        first = EmbeddingMatrix(rng.normal(size=(40, 8)), np.zeros((40, 8)))
        second = EmbeddingMatrix(rng.normal(size=(40, 8)), np.zeros((40, 8)))
        combined = combine_and_normalize(first, second)
        norms = np.linalg.norm(combined.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_zero_rows_flagged(self):
        first = EmbeddingMatrix(np.zeros((2, 2)), np.zeros((2, 2)))
        second = EmbeddingMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2)))
        combined = combine_and_normalize(first, second)
        assert combined.zero_rows.tolist() == [True, False]
        assert np.all(combined.vectors[0] == 0.0)

    def test_row_count_mismatch_rejected(self):
        first = EmbeddingMatrix(np.zeros((2, 2)), np.zeros((2, 2)))
        second = EmbeddingMatrix(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            combine_and_normalize(first, second)


class TestEmbeddingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim_total": 0},
            {"dim_total": 7},
            {"negative_samples": 0},
            {"epochs": 0},
            {"initial_learning_rate": 0.0},
            {"samples_per_epoch": 0},
            {"initial_learning_rate": math.nan},
            {"initial_learning_rate": math.inf},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingConfig(**kwargs)

    def test_dim_split(self):
        assert EmbeddingConfig(dim_total=128).dim_per_order == 64


class TestEmbeddingIO:
    def test_round_trip(self, rng):
        vectors = rng.normal(size=(5, 6))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        from fraudrings.embedding import CombinedEmbedding

        emb = CombinedEmbedding(vectors=vectors, normalized=True, zero_rows=np.zeros(5, bool))
        buf = io.StringIO()
        write_embedding(emb, buf)
        back = read_embedding(buf.getvalue().splitlines())
        assert back.vectors.shape == (5, 6)
        np.testing.assert_allclose(back.vectors, vectors, atol=1e-7)
        assert back.normalized

    # the last two are not numbers to float(), which the parser must follow
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0x10", "1,5"])
    def test_non_finite_value_rejected_with_line_number(self, bad):
        lines = ["#embedding 2 2", "0\t0.6 0.8", f"1\t{bad} 0"]
        with pytest.raises(GraphParseError) as exc:
            read_embedding(lines)
        assert exc.value.line_number == 3

    def test_repeated_row_rejected_with_line_number(self):
        lines = ["#embedding 2 2", "0\t1 0", "1\t0 1", "1\t0.6 0.8"]
        with pytest.raises(GraphParseError) as exc:
            read_embedding(lines)
        assert exc.value.line_number == 4

    def test_repeated_header_rejected_with_line_number(self):
        # a second header must not reset the size the rows are checked against
        lines = ["#embedding 1 2", "0\t1 0", "#embedding 2 2", "1\t0 1"]
        with pytest.raises(GraphParseError) as exc:
            read_embedding(lines)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("header", ["#embedding -1 2", "#embedding 2 -1"])
    def test_negative_header_size_rejected_with_line_number(self, header):
        with pytest.raises(GraphParseError) as exc:
            read_embedding([header])
        assert exc.value.line_number == 1

    @pytest.mark.parametrize(
        "vectors",
        [
            [[-0.0, 5e-324, 1e300, -1e-300], [0.0, 0.0, 0.0, 0.0], [1e-300, -1e300, 0.1, 1 / 3]],
            [[0.5], [-0.0], [5e-324], [-1e300]],
            np.zeros((0, 3)),
            np.random.default_rng(7).normal(size=(40, 16)),
        ],
        ids=["extremes", "dim1", "empty", "normal"],
    )
    def test_writer_bytes_equal_per_value_reference(self, vectors):
        from fraudrings.embedding import CombinedEmbedding

        vectors = np.asarray(vectors, dtype=np.float64)
        zero = ~vectors.any(axis=1)
        buf = io.StringIO()
        write_embedding(CombinedEmbedding(vectors=vectors, normalized=False, zero_rows=zero), buf)
        assert buf.getvalue() == reference_embedding_text(vectors)

    def test_embed_graph_edgeless_emits_zeros(self):
        g = ring_graph([], 3)
        emb = embed_graph(g, EmbeddingConfig(dim_total=8))
        assert emb.vectors.shape == (3, 8)
        assert np.all(emb.vectors == 0.0)
        assert np.all(emb.zero_rows)
