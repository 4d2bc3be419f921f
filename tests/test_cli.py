"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets import save_dataset


@pytest.fixture(scope="module")
def dataset_file(tiny_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "city.json.gz"
    save_dataset(tiny_dataset, path)
    return path


@pytest.fixture(scope="module")
def model_file(trained_lhmm, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    trained_lhmm.save(path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestGenerate:
    def test_generates_and_reports(self, tmp_path, capsys):
        out = tmp_path / "mini.json.gz"
        code = main(
            [
                "generate",
                "--preset",
                "xiamen",
                "--trajectories",
                "5",
                "--scale",
                "0.4",
                "--seed",
                "3",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "5 samples" in capsys.readouterr().out or "samples" in ""

    def test_stats_prints_table(self, dataset_file, capsys):
        assert main(["stats", "--dataset", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "road segments" in out
        assert "average cellular sampling interval (s)" in out


class TestTrain:
    def test_train_writes_model(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "trained.npz"
        code = main(
            [
                "train",
                "--dataset",
                str(dataset_file),
                "-o",
                str(out),
                "--epochs",
                "1",
                "--dim",
                "8",
                "--candidates",
                "4",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "trained LHMM" in capsys.readouterr().out

    def test_train_ablated_variant(self, dataset_file, tmp_path):
        out = tmp_path / "ablated.npz"
        code = main(
            [
                "train",
                "--dataset",
                str(dataset_file),
                "-o",
                str(out),
                "--epochs",
                "1",
                "--dim",
                "8",
                "--variant",
                "LHMM-S",
            ]
        )
        assert code == 0
        from repro.core import LHMM
        from repro.datasets import load_dataset

        restored = LHMM.load(out, load_dataset(dataset_file))
        assert restored.config.use_shortcuts is False

    def test_resume_requires_checkpoint_dir(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "train",
                "--dataset",
                str(dataset_file),
                "-o",
                str(tmp_path / "m.npz"),
                "--resume",
            ]
        )
        assert code == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_train_writes_checkpoints(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "trained.npz"
        ckpts = tmp_path / "ckpts"
        code = main(
            [
                "train",
                "--dataset", str(dataset_file),
                "-o", str(out),
                "--epochs", "1",
                "--dim", "8",
                "--candidates", "4",
                "--seed", "1",
                "--checkpoint-dir", str(ckpts),
            ]
        )
        assert code == 0
        assert any(p.name.startswith("ckpt-") for p in ckpts.iterdir())


class TestStructuredErrorExits:
    """Operator mistakes exit 2 with `error [<code>]` + hint, no traceback."""

    def test_missing_model_file(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "match",
                "--dataset", str(dataset_file),
                "--model", str(tmp_path / "nope.npz"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error [not_found]" in err
        assert "nope.npz" in err
        assert "hint:" in err

    def test_missing_dataset_file(self, tmp_path, capsys):
        code = main(["stats", "--dataset", str(tmp_path / "nope.json.gz")])
        assert code == 2
        assert "error [not_found]" in capsys.readouterr().err

    def test_corrupt_model_file(self, dataset_file, model_file, tmp_path, capsys):
        blob = bytearray(model_file.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(bytes(blob))
        code = main(
            [
                "evaluate",
                "--dataset", str(dataset_file),
                "--model", str(corrupt),
                "--limit", "1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error [artifact_corrupt]" in err
        assert "hint:" in err
        assert "Traceback" not in err

    def test_incompatible_model_file(self, dataset_file, tmp_path, capsys):
        import numpy as np

        from repro.nn.serialization import write_artifact

        wrong = tmp_path / "wrong.npz"
        write_artifact(wrong, {"w": np.zeros(3)}, kind="module-state")
        code = main(
            [
                "match",
                "--dataset", str(dataset_file),
                "--model", str(wrong),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error [artifact_incompatible]" in err
        assert "hint:" in err


class TestEvaluate:
    def test_evaluate_baseline(self, dataset_file, capsys):
        code = main(
            [
                "evaluate",
                "--dataset",
                str(dataset_file),
                "--baseline",
                "STM",
                "--limit",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision=" in out
        assert "CMF50=" in out

    def test_evaluate_exports(self, dataset_file, tmp_path, capsys):
        json_out = tmp_path / "r.json"
        csv_out = tmp_path / "r.csv"
        code = main(
            [
                "evaluate",
                "--dataset",
                str(dataset_file),
                "--baseline",
                "STM",
                "--limit",
                "2",
                "--json",
                str(json_out),
                "--csv",
                str(csv_out),
            ]
        )
        assert code == 0
        assert json_out.exists() and csv_out.exists()

    def test_evaluate_model(self, dataset_file, model_file, capsys):
        code = main(
            [
                "evaluate",
                "--dataset",
                str(dataset_file),
                "--model",
                str(model_file),
                "--limit",
                "2",
            ]
        )
        assert code == 0
        assert "precision=" in capsys.readouterr().out


class TestMatch:
    def test_match_with_renders(self, dataset_file, model_file, tmp_path, capsys):
        svg_out = tmp_path / "match.svg"
        code = main(
            [
                "match",
                "--dataset",
                str(dataset_file),
                "--model",
                str(model_file),
                "--ascii",
                "--svg",
                str(svg_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "segments" in out
        assert "legend" in out
        assert svg_out.exists()

    def test_match_unknown_sample(self, dataset_file, model_file, capsys):
        code = main(
            [
                "match",
                "--dataset",
                str(dataset_file),
                "--model",
                str(model_file),
                "--sample-id",
                "999999",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no sample with id 999999" in err
        assert "valid ids:" in err  # the error is actionable, not a traceback


class TestServeParser:
    def test_serve_requires_model_and_dataset(self):
        with pytest.raises(SystemExit):
            main(["serve", "--dataset", "city.json.gz"])  # missing --model

    def test_serve_accepts_tuning_flags(self):
        # Parses without touching the filesystem: unknown files only fail
        # once the command body runs, so a bad flag is a parse error here.
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "serve",
                "--dataset", "city.json.gz",
                "--model", "model.npz",
                "--port", "0",
                "--workers", "2",
                "--max-inflight", "32",
                "--cache-size", "0",
                "--max-sessions", "16",
                "--session-ttl", "60",
                "--lag", "3",
            ]
        )
        assert args.command == "serve"
        assert args.max_inflight == 32
        assert args.lag == 3


class TestServeCommandLine:
    """``serve`` always starts the gateway; the command line the
    benchmark passes (with ``--cluster``) must keep meaning the same."""

    BENCH_ARGS = ["--dataset", "D", "--model", "M", "--workers", "1", "--port", "0"]

    def test_cluster_flag_changes_nothing(self):
        from repro.cli import _build_parser, _cluster_config

        parser = _build_parser()
        with_flag = parser.parse_args(["serve", "--cluster", *self.BENCH_ARGS])
        without = parser.parse_args(["serve", *self.BENCH_ARGS])
        assert _cluster_config(with_flag) == _cluster_config(without)
        config = _cluster_config(without)
        assert (config.num_workers, config.port) == (1, 0)

    #: argparse ``dest`` names of the options that only tuned the removed
    #: threaded server or TCP worker transport; each must be a usage error.
    REMOVED = ["batch_window_ms", "batch_max", "queue_limit", "chunk_timeout",
               "log_requests", "transport"]
    #: The value each removed option is given (``--transport tcp``).
    VALUES = {"log_requests": [], "transport": ["tcp"]}

    @pytest.mark.parametrize("dest", REMOVED)
    def test_removed_flags_are_usage_errors(self, dest, capsys):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve", *self.BENCH_ARGS])
        assert not hasattr(args, dest)
        flag = "--" + dest.replace("_", "-")
        value = self.VALUES.get(dest, ["1"])
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *self.BENCH_ARGS, flag, *value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_serve_prints_the_gateway_banner_and_drains(
        self, served_paths, monkeypatch, capsys
    ):
        from repro.serve import ClusterServer

        def interrupt(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(ClusterServer, "serve_forever", interrupt)
        dataset_path, model_path = served_paths
        code = main(
            ["serve", "--cluster", "--dataset", dataset_path, "--model",
             model_path, "--workers", "1", "--port", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # perfbench/serve.py reads the port from this banner.
        assert "cluster gateway at http://127.0.0.1:" in out
        assert "drained; committed 0 open sessions" in out


class TestProfile:
    def test_profiles_dataset_and_writes_json(self, dataset_file, tmp_path, capsys):
        out_json = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--dataset", str(dataset_file),
                "--trajectories", "3",
                "--epochs", "1",
                "--top", "5",
                "--json", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-stage wall-clock" in out
        assert "cProfile hotspots" in out
        assert "'batched' pipeline" in out

        import json

        payload = json.loads(out_json.read_text())
        assert payload["pipeline"] == "batched"
        assert payload["trajectories"] == 3
        assert payload["total_s"] > 0
        assert "trellis.run" in payload["stages_s"]
        assert "transitions" in payload["stages_s"]
        assert "relevance" in payload["stages_s"]

    def test_scalar_pipeline_uses_reference_trellis(self, dataset_file, capsys):
        code = main(
            [
                "profile",
                "--dataset", str(dataset_file),
                "--trajectories", "2",
                "--epochs", "1",
                "--top", "3",
                "--pipeline", "scalar",
            ]
        )
        assert code == 0
        assert "'scalar' pipeline" in capsys.readouterr().out
