"""Config parsing, risk scoring, pipeline orchestration, and CLI behavior."""

import math

import numpy as np
import pytest

from fraudrings.cli import cli
from fraudrings.clustering import ClusterParams
from fraudrings.embedding import EmbeddingConfig
from fraudrings.graph import GraphParseError
from fraudrings.pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    parse_config,
    read_risk_file,
    risk_score,
    run_pipeline,
)

HARD_LINES = [
    "A1\tphone\tA2",
    "A1\temail\tA4",
    "A4\tcredit_card\tA5",
    "A6\tphone\tA7",
    "A7\tnational_id\tA9",
    "A9\tbank_account\tA10",
    "A10\temail\tA11",
]
SOFT_LINES = [
    "A2\tdevice_fingerprint\tA3",
    "A3\tip_address\tA7",
    "A5\tdevice_fingerprint\tA6",
    "A4\tcookie\tA9",
    "A8\tip_address\tA10",
    "A1\tcookie\tA5",
]


def write_inputs(tmp_path, hard=HARD_LINES, soft=SOFT_LINES):
    hard_path = tmp_path / "hard.tsv"
    soft_path = tmp_path / "soft.tsv"
    hard_path.write_text("\n".join(hard) + ("\n" if hard else ""))
    soft_path.write_text("\n".join(soft) + ("\n" if soft else ""))
    return hard_path, soft_path


def toy_config(tmp_path, **overrides):
    hard_path, soft_path = write_inputs(tmp_path)
    kwargs = dict(
        embedding=EmbeddingConfig(dim_total=16, epochs=3, seed=5),
        clustering=ClusterParams(min_cluster_size=2),
        hard_links=str(hard_path),
        soft_links=str(soft_path),
        out_dir=str(tmp_path / "out"),
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


class TestConfigParsing:
    def test_defaults_from_empty_config(self):
        cfg = parse_config([])
        assert cfg.embedding.dim_total == 128
        assert cfg.clustering.min_cluster_size == 5
        assert cfg.decay_lambda == 0.01
        assert (cfg.alpha_size, cfg.alpha_density, cfg.alpha_indicator) == (0.2, 0.3, 0.5)

    def test_key_value_lines(self):
        cfg = parse_config(
            [
                "# embedding",
                "dim_total = 32",
                "epochs=2",
                "seed = 9",
                "min_cluster_size = 3",
                "alpha_size = 0.5",
                "alpha_density = 0.25",
                "alpha_indicator = 0.25",
                "out_dir = /tmp/x",
            ]
        )
        assert cfg.embedding.dim_total == 32
        assert cfg.embedding.seed == 9
        assert cfg.clustering.min_cluster_size == 3
        assert cfg.alpha_size == 0.5
        assert cfg.out_dir == "/tmp/x"

    def test_unknown_key_rejected(self):
        for line in ["no_such_key = 1", "workers = 2"]:
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config([line])

    def test_bad_value_rejected(self):
        bad_lines = [
            "epochs = banana",
            "nn_threshold = nan",
            "decay_lambda = nan",
            "initial_learning_rate = nan",
            "alpha_size = nan",
            "decay_lambda = inf",
        ]
        for line in bad_lines:
            with pytest.raises(ConfigError, match="line 2"):
                parse_config(["# comment", line])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            parse_config(["alpha_size = 0.9"])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(alpha_size=-0.1, alpha_density=0.6, alpha_indicator=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"alpha_size": math.nan}, {"nn_threshold": math.nan}, {"decay_lambda": math.nan}],
    )
    def test_nan_rejected_by_constructor(self, kwargs):
        with pytest.raises(ConfigError):
            PipelineConfig(**kwargs)


class TestRiskFile:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_line_number(self, bad):
        with pytest.raises(GraphParseError) as exc:
            read_risk_file(["a\t1", f"a\t{bad}"], {"a": 0})
        assert exc.value.line_number == 2


class TestRiskScore:
    def test_identical_embeddings_full_size(self):
        vectors = np.tile(np.array([1.0, 0.0]), (4, 1))
        score, parts = risk_score(
            100,
            vectors,
            np.zeros(4),
            alpha_size=0.2,
            alpha_density=0.3,
            alpha_indicator=0.5,
            size_cap=100,
            global_max_risk=0.0,
        )
        assert parts["size"] == 1.0
        assert parts["density"] == pytest.approx(1.0)
        assert parts["indicator"] == 0.0
        assert score == pytest.approx(0.5)

    def test_matches_scalar_recomputation(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 8))
            vectors = rng.normal(size=(m, 6))
            risks = rng.random(m) * 4.0
            n_accounts = int(rng.integers(m, 40))
            gmax = float(risks.max() + rng.random())
            score, parts = risk_score(
                n_accounts,
                vectors,
                risks,
                alpha_size=0.2,
                alpha_density=0.3,
                alpha_indicator=0.5,
                size_cap=100,
                global_max_risk=gmax,
            )
            dists = []
            for i in range(m):
                for j in range(i + 1, m):
                    a, b = vectors[i], vectors[j]
                    dists.append(
                        1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
                    )
            expected_density = min(1.0, max(0.0, 1.0 - float(np.mean(dists))))
            expected = (
                0.2 * min(n_accounts / 100, 1.0)
                + 0.3 * expected_density
                + 0.5 * min(1.0, float(risks.mean()) / gmax)
            )
            assert score == pytest.approx(expected, rel=1e-9)
            assert 0.0 <= score <= 1.0

    def test_indicator_scaling_invariance_of_order(self, rng):
        vectors = rng.normal(size=(6, 4))
        risks_a = np.array([1.0, 2.0, 3.0, 1.0, 0.5, 2.5])
        clusters = [(0, 1, 2), (3, 4, 5)]

        def scores(scale):
            out = []
            gmax = float((risks_a * scale).max())
            for members in clusters:
                s, _ = risk_score(
                    len(members) * 3,
                    vectors[list(members)],
                    risks_a[list(members)] * scale,
                    alpha_size=0.2,
                    alpha_density=0.3,
                    alpha_indicator=0.5,
                    global_max_risk=gmax,
                )
                out.append(s)
            return out

        base = scores(1.0)
        scaled = scores(37.5)
        assert np.argsort(base).tolist() == np.argsort(scaled).tolist()
        np.testing.assert_allclose(base, scaled, atol=1e-12)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            risk_score(
                0, np.zeros((0, 2)), np.zeros(0),
                alpha_size=0.2, alpha_density=0.3, alpha_indicator=0.5,
            )


class TestRunPipeline:
    def test_toy_input_deterministic(self, tmp_path):
        cfg = toy_config(tmp_path)
        result = run_pipeline(cfg)
        assert result.transformed.num_supernodes == 4
        report_a = result.paths["report"].read_text()
        result2 = run_pipeline(cfg)
        assert result2.paths["report"].read_text() == report_a
        for key in ("transformed", "embedding", "clusters", "report"):
            assert result.paths[key].exists()

    def test_empty_soft_file_all_noise(self, tmp_path):
        hard_path, soft_path = write_inputs(tmp_path, soft=[])
        cfg = toy_config(tmp_path, hard_links=str(hard_path), soft_links=str(soft_path))
        result = run_pipeline(cfg)
        assert result.assignment.n_clusters == 0
        assert np.all(result.assignment.labels == -1)
        assert result.paths["report"].read_text().startswith("#ranked_clusters 0")

    def test_report_sorted_by_score(self, tmp_path):
        from fraudrings.evaluation import SynthConfig, generate

        g, _ = generate(SynthConfig(seed=3, n_legit=120, n_rings=4))
        hard_path = tmp_path / "synth_hard.tsv"
        soft_path = tmp_path / "synth_soft.tsv"
        with open(hard_path, "w") as fh:
            for link in g.hard_links:
                fh.write(f"{g.tokens[link.u]}\t{link.kind}\t{g.tokens[link.v]}\n")
        with open(soft_path, "w") as fh:
            for link in g.soft_links:
                fh.write(
                    f"{g.tokens[link.u]}\t{link.kind}\t{g.tokens[link.v]}\t{link.weight:g}\n"
                )
        cfg = toy_config(
            tmp_path,
            hard_links=str(hard_path),
            soft_links=str(soft_path),
            embedding=EmbeddingConfig(dim_total=32, epochs=10, seed=2),
            clustering=ClusterParams(min_cluster_size=3),
        )
        result = run_pipeline(cfg)
        scores = [rc.score for rc in result.ranked]
        assert len(scores) >= 2
        assert scores == sorted(scores, reverse=True)
        lines = result.paths["report"].read_text().splitlines()
        assert lines[0] == f"#ranked_clusters {len(result.ranked)}"
        for rank, line in enumerate(lines[1:], start=1):
            fields = line.split("\t")
            assert int(fields[0]) == rank
            assert len(fields) == 5

    def test_missing_input_aborts_with_stage_and_cleans_up(self, tmp_path):
        cfg = toy_config(tmp_path, soft_links=str(tmp_path / "missing.tsv"))
        with pytest.raises(StageError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "ingest"
        assert not (tmp_path / "out" / "transformed.tsv").exists()

    def test_risk_indicators_feed_scores(self, tmp_path):
        from fraudrings.evaluation import SynthConfig, generate

        g, _ = generate(SynthConfig(seed=5, n_legit=100, n_rings=4))
        hard_path = tmp_path / "synth_hard.tsv"
        soft_path = tmp_path / "synth_soft.tsv"
        risk_path = tmp_path / "risk.tsv"
        with open(hard_path, "w") as fh:
            for link in g.hard_links:
                fh.write(f"{g.tokens[link.u]}\t{link.kind}\t{g.tokens[link.v]}\n")
        with open(soft_path, "w") as fh:
            for link in g.soft_links:
                fh.write(
                    f"{g.tokens[link.u]}\t{link.kind}\t{g.tokens[link.v]}\t{link.weight:g}\n"
                )
        with open(risk_path, "w") as fh:
            for token in g.tokens:
                fh.write(f"{token}\t1.0\n")
        cfg = toy_config(
            tmp_path,
            hard_links=str(hard_path),
            soft_links=str(soft_path),
            risk_indicators=str(risk_path),
            embedding=EmbeddingConfig(dim_total=32, epochs=10, seed=2),
            clustering=ClusterParams(min_cluster_size=3),
        )
        result = run_pipeline(cfg)
        assert result.ranked
        assert all(rc.components["indicator"] > 0 for rc in result.ranked)


class TestCli:
    def test_unknown_flag_usage_error(self, capsys):
        assert cli(["transform", "--nonsense"]) == 1

    def test_missing_file_data_error(self, tmp_path, capsys):
        code = cli(
            [
                "transform",
                "--hard", str(tmp_path / "nope.tsv"),
                "--soft", str(tmp_path / "nope2.tsv"),
                "--out", str(tmp_path / "t.tsv"),
            ]
        )
        assert code == 2

    def test_generate_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["generate", "--legit", "80", "--rings", "3", "--seed", "7"]
        assert cli(args + ["--out", str(a)]) == 0
        assert cli(args + ["--out", str(b)]) == 0
        for name in ("hard_links.tsv", "soft_links.tsv", "ground_truth.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_stage_composability_matches_pipeline(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli(["generate", "--legit", "60", "--rings", "3", "--seed", "3", "--out", str(data)]) == 0
        config = tmp_path / "run.cfg"
        config.write_text(
            "\n".join(
                [
                    "dim_total = 16",
                    "epochs = 3",
                    "seed = 11",
                    "min_cluster_size = 3",
                    f"hard_links = {data / 'hard_links.tsv'}",
                    f"soft_links = {data / 'soft_links.tsv'}",
                    f"out_dir = {tmp_path / 'full'}",
                ]
            )
            + "\n"
        )
        assert cli(["pipeline", "--config", str(config)]) == 0

        staged = tmp_path / "staged"
        staged.mkdir()
        assert cli(
            [
                "transform",
                "--hard", str(data / "hard_links.tsv"),
                "--soft", str(data / "soft_links.tsv"),
                "--out", str(staged / "transformed.tsv"),
            ]
        ) == 0
        assert cli(
            [
                "embed", "--config", str(config),
                "--graph", str(staged / "transformed.tsv"),
                "--out", str(staged / "embedding.tsv"),
            ]
        ) == 0
        assert cli(
            [
                "cluster", "--config", str(config),
                "--graph", str(staged / "transformed.tsv"),
                "--embedding", str(staged / "embedding.tsv"),
                "--out-labels", str(staged / "clusters.tsv"),
                "--out-report", str(staged / "report.tsv"),
            ]
        ) == 0
        for name in ("transformed.tsv", "embedding.tsv", "clusters.tsv", "report.tsv"):
            assert (tmp_path / "full" / name).read_bytes() == (staged / name).read_bytes()

    def test_evaluate_perfect_assignment(self, tmp_path, capsys):
        graph_file = tmp_path / "t.tsv"
        graph_file.write_text(
            "#supernodes 2\n"
            "f1\t0\n"
            "f2\t0\n"
            "l1\t1\n"
            "E\t0\t1\t1.000000\n"
        )
        labels_file = tmp_path / "labels.tsv"
        labels_file.write_text("0\t0\n1\t-1\n")
        truth_file = tmp_path / "truth.tsv"
        truth_file.write_text("f1\t0\nf2\t0\n")
        code = cli(
            [
                "evaluate",
                "--graph", str(graph_file),
                "--labels", str(labels_file),
                "--truth", str(truth_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "coverage=1.0000" in out
        assert "precision=1.0000" in out

    def test_stats_reports_counts(self, tmp_path, capsys):
        hard_path, soft_path = write_inputs(tmp_path)
        code = cli(["stats", "--hard", str(hard_path), "--soft", str(soft_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "nodes_before=11" in out
        assert "nodes_after=4" in out

    def test_replay_emits_snapshots(self, tmp_path, capsys):
        hard_path, soft_path = write_inputs(tmp_path)
        log = tmp_path / "updates.tsv"
        log.write_text(
            "A\tZ1\t1\n"
            "A\tZ2\t1\n"
            "S\tZ1\tcookie\tZ2\t2\t2\n"
            "H\tA3\tphone\tZ1\t3\n"
        )
        out_dir = tmp_path / "snap"
        code = cli(
            [
                "replay",
                "--hard", str(hard_path),
                "--soft", str(soft_path),
                "--log", str(log),
                "--out", str(out_dir),
                "--config", "/dev/null",
            ]
        )
        assert code == 0
        snapshot = (out_dir / "snapshot_graph.tsv").read_text()
        assert "Z1" in snapshot and "Z2" in snapshot
        declared = int(snapshot.splitlines()[0].split()[1])
        labels = (out_dir / "snapshot_labels.tsv").read_text().splitlines()
        assert len(labels) == declared  # one label per super-node

    def test_invalid_config_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("alpha_size = 2.0\n")
        assert cli(["pipeline", "--config", str(config)]) == 2

    def test_mismatched_embedding_is_data_error(self, tmp_path, capsys):
        graph_file = tmp_path / "t.tsv"
        graph_file.write_text("#supernodes 2\na\t0\nb\t1\nE\t0\t1\t1.000000\n")
        emb_file = tmp_path / "e.tsv"
        emb_file.write_text("#embedding 1 2\n0\t1 0\n")
        code = cli(
            [
                "cluster",
                "--graph", str(graph_file),
                "--embedding", str(emb_file),
                "--out-labels", str(tmp_path / "l.tsv"),
                "--out-report", str(tmp_path / "r.tsv"),
            ]
        )
        assert code == 2

    def test_repeated_embedding_row_is_data_error(self, tmp_path, capsys):
        graph_file = tmp_path / "t.tsv"
        graph_file.write_text("#supernodes 2\na\t0\nb\t1\nE\t0\t1\t1.000000\n")
        emb_file = tmp_path / "e.tsv"
        emb_file.write_text("#embedding 2 2\n0\t1 0\n1\t0 1\n1\t0.6 0.8\n")
        code = cli(
            [
                "cluster",
                "--graph", str(graph_file),
                "--embedding", str(emb_file),
                "--out-labels", str(tmp_path / "l.tsv"),
                "--out-report", str(tmp_path / "r.tsv"),
            ]
        )
        assert code == 2
        assert "line 4" in capsys.readouterr().err

    def test_negative_embedding_header_is_data_error(self, tmp_path, capsys):
        graph_file = tmp_path / "t.tsv"
        graph_file.write_text("#supernodes 2\na\t0\nb\t1\nE\t0\t1\t1.000000\n")
        emb_file = tmp_path / "e.tsv"
        emb_file.write_text("#embedding -1 2\n")
        code = cli(
            [
                "cluster",
                "--graph", str(graph_file),
                "--embedding", str(emb_file),
                "--out-labels", str(tmp_path / "l.tsv"),
                "--out-report", str(tmp_path / "r.tsv"),
            ]
        )
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli(["--help"]) == 0

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli(["generate", "--legit", "40", "--rings", "2", "--seed", "1", "--out", str(data)]) == 0
        t_file = tmp_path / "t.tsv"
        assert cli(
            [
                "transform",
                "--hard", str(data / "hard_links.tsv"),
                "--soft", str(data / "soft_links.tsv"),
                "--out", str(t_file),
            ]
        ) == 0
        e1, e2, e3 = (tmp_path / n for n in ("e1.tsv", "e2.tsv", "e3.tsv"))
        assert cli(["embed", "--graph", str(t_file), "--out", str(e1), "--seed", "5"]) == 0
        assert cli(["embed", "--graph", str(t_file), "--out", str(e2), "--seed", "5"]) == 0
        assert cli(["embed", "--graph", str(t_file), "--out", str(e3), "--seed", "6"]) == 0
        assert e1.read_bytes() == e2.read_bytes()
        assert e1.read_bytes() != e3.read_bytes()
