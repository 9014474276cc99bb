import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import micpq
from micpq import evaluation
from micpq.cli import main
from micpq.dataio import (
    EmbeddingMatrix,
    LabelVector,
    read_embeddings,
    read_labels,
    write_embeddings,
    write_labels,
)
from micpq.errors import ConfigMismatchError, KNot2Error
from micpq.quantizer import ASSIGN_ROWS
from micpq.retrieval import build_index, load_index, save_index
from micpq.trainer import TrainConfig, init_model, load_checkpoint, save_checkpoint


def _synth(tmp_path, n=60, dim=6, classes=3, seed=7, name="data"):
    out = tmp_path / name
    code = main(
        [
            "synth", "--n", str(n), "--dim", str(dim), "--classes", str(classes),
            "--sep", "20", "--sigma", "1", "--seed", str(seed), "--out", str(out),
        ]
    )
    assert code == 0
    return out / "data.emb", out / "data.lbl"


def _train(tmp_path, emb_path, extra=(), name="model.ckpt"):
    ckpt = tmp_path / name
    args = [
        "train", "--emb", str(emb_path), "--M", "2", "--K", "4", "--sub-dim", "3",
        "--epochs", "2", "--batch-size", "24", "--seed", "3", "--out", str(ckpt),
    ]
    code = main(args + list(extra))
    assert code == 0
    return ckpt


@pytest.fixture(scope="module")
def required_args(tmp_path_factory):
    """Valid required options of each command, over real files, so that
    each case fails on its one bad value and nothing else."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    emb, lbl = _synth(tmp_path)
    ckpt = _train(tmp_path, emb)
    idx = tmp_path / "c.idx"
    assert main(["index", "--ckpt", str(ckpt), "--emb", str(emb), "--out", str(idx)]) == 0
    emb, lbl, ckpt, idx = str(emb), str(lbl), str(ckpt), str(idx)
    return {
        "train": ["--emb", emb, "--M", "2", "--out", str(tmp_path / "x.ckpt")],
        "index": ["--ckpt", ckpt, "--emb", emb, "--out", str(tmp_path / "x.idx")],
        "search": ["--index", idx, "--ckpt", ckpt, "--queries", emb],
        "eval": ["--ckpt", ckpt, "--emb", emb, "--labels", lbl],
    }


class TestSynth:
    def test_writes_readable_pair(self, tmp_path):
        emb_path, lbl_path = _synth(tmp_path)
        emb = read_embeddings(emb_path)
        labels = read_labels(lbl_path, expected_n_docs=emb.n_docs)
        assert emb.n_docs == 60 and emb.dim == 6
        assert labels.n_classes == 3

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "10", "--dim", "2", "--classes", "2"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, _ = _synth(tmp_path, name="a")
        b, _ = _synth(tmp_path, name="b")
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_but_flags_win(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\nbatch-size=24\nM=2\nK=4\nsub-dim=3\nseed=3\n")
        ckpt = tmp_path / "m.ckpt"
        code = main(
            [
                "train", "--emb", str(emb_path), "--epochs", "1",
                "--out", str(ckpt), "--config", str(cfg),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epochs=1" in out  # the flag overrode the config file
        assert out.count("epoch=") == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        # epoch= would pass argparse's prefix matching for --epochs
        for line in ("bogus=1", "epoch=3", "config=x"):
            cfg.write_text(line + "\n")
            with pytest.raises(SystemExit) as exc:
                main(["train", "--emb", str(emb_path), "--M", "2", "--out", "x",
                      "--config", str(cfg)])
            assert exc.value.code == 2

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,key,value", [
        ("eval", "mode", "bogus"),
        ("search", "mode", "bogus"),
        ("train", "split", "bogus"),
        ("index", "split", "bogus"),
        ("train", "split_ratios", "0.5,0.5,0.5"),
        ("index", "split_ratios", "a,b,c"),
        ("eval", "split_ratios", "0.5,0.5"),
        ("eval", "split_ratios", "-0.1,0.6,0.5"),
        ("index", "split_ratios", "nan,0.5,0.5"),
    ])
    def test_bad_value_is_usage_error(
        self, tmp_path, capsys, required_args, command, key, value, via
    ):
        argv = [command, *required_args[command]]
        flag = "--" + key.replace("_", "-")
        if via == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_flags_override_config_lines_of_every_kind(self, tmp_path, capsys):
        emb_path, lbl_path = _synth(tmp_path)  # 60 documents, 3 classes
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=5\nlambda=0.2\nsplit-ratios=0.5,0.25,0.25\n"
                       "M=2\nK=3\nsub-dim=3\nbatch-size=24\n")
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--emb", str(emb_path), "--out", str(ckpt), "--config", str(cfg),
                     "--epochs", "1", "--lambda", "0.3", "--split-ratios", "0.8,0.1,0.1"]) == 0
        out = capsys.readouterr().out
        assert "epochs=1" in out and "lambda=0.3" in out
        assert "training on 48 of 60 documents" in out
        eval_cfg = tmp_path / "eval.cfg"
        eval_cfg.write_text("clustering=no\nk=5\n")
        argv = ["eval", "--ckpt", str(ckpt), "--emb", str(emb_path), "--labels", str(lbl_path),
                "--config", str(eval_cfg)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "k=5" in out and "avg_accuracy=" not in out
        assert main(argv + ["--clustering"]) == 0
        assert "avg_accuracy=" in capsys.readouterr().out


class TestTrain:
    def test_banner_reports_code_bits(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path, n=40, dim=5)
        ckpt = tmp_path / "m.ckpt"
        code = main(
            [
                "train", "--emb", str(emb_path), "--M", "8", "--K", "16",
                "--sub-dim", "2", "--epochs", "1", "--batch-size", "16",
                "--out", str(ckpt),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "32-bit codes" in out
        assert "tau_gumbel=5.0" in out  # 32-bit codes default to 5

    def test_lambda_flag_sets_mi_weight(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path, n=40, dim=5)
        code = main(
            [
                "train", "--emb", str(emb_path), "--M", "2", "--K", "4",
                "--sub-dim", "2", "--epochs", "1", "--batch-size", "16",
                "--lambda", "0.3", "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        assert code == 0
        assert "lambda=0.3" in capsys.readouterr().out

    def test_sixteen_bit_gumbel_default(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path, n=40, dim=5)
        code = main(
            [
                "train", "--emb", str(emb_path), "--M", "4", "--K", "16",
                "--sub-dim", "2", "--epochs", "1", "--batch-size", "16",
                "--out", str(tmp_path / "m.ckpt"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "16-bit codes" in out
        assert "tau_gumbel=10.0" in out

    def test_checkpoint_loadable_and_log_complete(self, tmp_path, capsys):
        from micpq.trainer import load_checkpoint

        emb_path, _ = _synth(tmp_path)
        log_path = tmp_path / "train.log"
        ckpt = _train(tmp_path, emb_path, extra=["--log", str(log_path)])
        capsys.readouterr()
        state = load_checkpoint(ckpt)
        assert state.books.books.shape == (2, 4, 3)
        lines = log_path.read_text().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("epoch=") for line in lines)

    def test_idempotent_given_identical_flags(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path)
        a = _train(tmp_path, emb_path, name="a.ckpt")
        b = _train(tmp_path, emb_path, name="b.ckpt")
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_does_not_mutate_inputs(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path)
        before = hashlib.sha256(emb_path.read_bytes()).hexdigest()
        _train(tmp_path, emb_path)
        capsys.readouterr()
        assert hashlib.sha256(emb_path.read_bytes()).hexdigest() == before

    @pytest.mark.parametrize("split", ["train", "all"])
    def test_reads_only_its_split(self, tmp_path, capsys, monkeypatch, split):
        from micpq import dataio, trainer
        from micpq.dataio import EmbeddingMatrix
        from micpq.objectives import LossConfig

        emb_path, _ = _synth(tmp_path)
        whole = read_embeddings(emb_path)
        rows = np.arange(60) if split == "all" else np.sort(
            evaluation.split_indices(60, (0.8, 0.1, 0.1), 0)[0]
        )
        requested = []

        def spy(path, rows=None, out=None):
            requested.append(rows)
            return read_embeddings(path, rows, out)

        monkeypatch.setattr(dataio, "read_embeddings", spy)
        ckpt = _train(tmp_path, emb_path, extra=["--split", split])
        assert f"training on {len(rows)} of 60 documents (split={split})" in capsys.readouterr().out
        # the split is read (whole, as it is small), never a row outside it
        assert all(asked is not None for asked in requested)
        assert np.array_equal(np.unique(np.concatenate(requested)), rows)

        cfg = TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=3, batch_size=24, n_epochs=2,
                          seed=3, loss=LossConfig(tau_gumbel=5.0), checkpoint_path=str(tmp_path / "lib.ckpt"))
        trainer.train(cfg, EmbeddingMatrix(whole.values[rows]))
        assert ckpt.read_bytes() == (tmp_path / "lib.ckpt").read_bytes()

    def test_missing_embedding_file_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["train", "--emb", str(tmp_path / "nope.emb"), "--M", "2",
             "--out", str(tmp_path / "m.ckpt")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestPipeline:
    def test_index_search_eval(self, tmp_path, capsys):
        emb_path, lbl_path = _synth(tmp_path)
        ckpt = _train(tmp_path, emb_path)

        idx_path = tmp_path / "corpus.idx"
        assert main(["index", "--ckpt", str(ckpt), "--emb", str(emb_path),
                     "--out", str(idx_path)]) == 0
        assert idx_path.exists()

        report_path = tmp_path / "eval.txt"
        code = main(
            ["eval", "--ckpt", str(ckpt), "--emb", str(emb_path),
             "--labels", str(lbl_path), "--k", "10", "--report", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("precision_at_10=")][0]
        precision = float(line.split("=")[1])
        assert 0.0 <= precision <= 1.0
        assert report_path.read_text().splitlines()[0] == line

    def test_eval_with_prebuilt_index_matches_internal(self, tmp_path, capsys):
        emb_path, lbl_path = _synth(tmp_path)
        ckpt = _train(tmp_path, emb_path)
        idx_path = tmp_path / "c.idx"
        main(["index", "--ckpt", str(ckpt), "--emb", str(emb_path), "--out", str(idx_path)])
        capsys.readouterr()
        main(["eval", "--ckpt", str(ckpt), "--emb", str(emb_path),
              "--labels", str(lbl_path), "--k", "7"])
        internal = capsys.readouterr().out
        main(["eval", "--ckpt", str(ckpt), "--emb", str(emb_path),
              "--labels", str(lbl_path), "--k", "7", "--index", str(idx_path)])
        external = capsys.readouterr().out
        assert internal == external

    def test_search_small_index_returns_min_rule(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path)
        ckpt = _train(tmp_path, emb_path)
        small_emb, _ = _synth(tmp_path, n=3, name="small")
        idx_path = tmp_path / "small.idx"
        assert main(["index", "--ckpt", str(ckpt), "--emb", str(small_emb),
                     "--out", str(idx_path), "--split", "all"]) == 0
        queries, _ = _synth(tmp_path, n=2, classes=2, name="queries")
        capsys.readouterr()
        assert main(["search", "--index", str(idx_path), "--ckpt", str(ckpt),
                     "--queries", str(queries), "--k", "5"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2 * 3  # 2 queries x 3 indexed docs
        first = lines[0].split("\t")
        assert first[0] == "0" and first[1] == "1"

    def test_hamming_mode_requires_two_codewords(self, tmp_path, capsys):
        emb_path, lbl_path = _synth(tmp_path)
        ckpt = _train(tmp_path, emb_path)  # K=4
        code = main(
            ["eval", "--ckpt", str(ckpt), "--emb", str(emb_path),
             "--labels", str(lbl_path), "--mode", "hamming"]
        )
        assert code == 1
        assert "hamming mode requires K=2" in capsys.readouterr().err

    def test_hamming_search_requires_two_codewords(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path)
        ckpt = _train(tmp_path, emb_path)  # K=4
        idx_path = tmp_path / "c.idx"
        assert main(["index", "--ckpt", str(ckpt), "--emb", str(emb_path),
                     "--out", str(idx_path)]) == 0
        capsys.readouterr()
        code = main(["search", "--index", str(idx_path), "--ckpt", str(ckpt),
                     "--queries", str(emb_path), "--mode", "hamming"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "K=2" in captured.err

    def test_invalid_setting_is_runtime_error(self, tmp_path, capsys):
        emb_path, _ = _synth(tmp_path)
        code = main(["train", "--emb", str(emb_path), "--M", "0",
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_hamming_pipeline_runs_with_extreme_config(self, tmp_path, capsys):
        emb_path, lbl_path = _synth(tmp_path)
        ckpt = tmp_path / "ext.ckpt"
        assert main(
            ["train", "--emb", str(emb_path), "--M", "8", "--K", "2",
             "--sub-dim", "2", "--epochs", "1", "--batch-size", "24",
             "--seed", "3", "--out", str(ckpt)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["eval", "--ckpt", str(ckpt), "--emb", str(emb_path),
             "--labels", str(lbl_path), "--k", "5", "--mode", "hamming"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mode=hamming" in out

    def test_eval_on_an_index_larger_than_the_labels_is_runtime_error(self, tmp_path, capsys):
        big_emb, _ = _synth(tmp_path, n=90, name="big")
        emb_path, lbl_path = _synth(tmp_path)  # 60 documents, same width
        ckpt = _train(tmp_path, emb_path)
        idx_path = tmp_path / "big.idx"
        assert main(["index", "--ckpt", str(ckpt), "--emb", str(big_emb),
                     "--out", str(idx_path), "--split", "all"]) == 0
        capsys.readouterr()
        code = main(["eval", "--ckpt", str(ckpt), "--emb", str(emb_path),
                     "--labels", str(lbl_path), "--index", str(idx_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: index doc ids reach 89")

    def test_eval_with_an_empty_test_split_is_runtime_error(self, tmp_path, capsys):
        emb_path, lbl_path = _synth(tmp_path)
        ckpt = _train(tmp_path, emb_path)
        capsys.readouterr()
        report_path = tmp_path / "eval.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--ckpt", str(ckpt), "--emb", str(emb_path),
                         "--labels", str(lbl_path), "--split-ratios", "1,0,0",
                         "--report", str(report_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: the test split is empty")
        assert not report_path.exists()

    def test_eval_clustering_report(self, tmp_path, capsys):
        emb_path, lbl_path = _synth(tmp_path)  # 3 classes
        ckpt = tmp_path / "c3.ckpt"
        assert main(
            ["train", "--emb", str(emb_path), "--M", "2", "--K", "3",
             "--sub-dim", "3", "--epochs", "1", "--batch-size", "24",
             "--seed", "3", "--out", str(ckpt)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["eval", "--ckpt", str(ckpt), "--emb", str(emb_path),
             "--labels", str(lbl_path), "--k", "5", "--clustering"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg_accuracy=" in out
        assert "kmeans_avg_accuracy=" in out


def _corpus(tmp_path, n, dim=8, seed=21):
    """(embeddings, labels, checkpoint) paths: n random rows of width dim in
    5 round-robin classes, and an untrained M=2, K=4 model."""
    values = np.random.default_rng(seed).normal(size=(n, dim)).astype(np.float32)
    paths = tmp_path / "c.emb", tmp_path / "c.lbl", tmp_path / "m.ckpt"
    write_embeddings(EmbeddingMatrix(values), paths[0])
    write_labels(LabelVector(np.arange(n, dtype=np.uint32) % 5), paths[1])
    save_checkpoint(init_model(TrainConfig(n_codebooks=2, n_codewords=4, sub_dim=3, seed=seed),
                               values[:256]), paths[2])
    return tuple(str(path) for path in paths)


def _poison(path, row, dim=8):
    """Write a NaN into column 1 of an embedding file's row; return its byte offset."""
    offset = 24 + (int(row) * dim + 1) * 4
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(np.array([np.nan], "<f4").tobytes())
    return offset


class TestStreamedCorpus:
    """index and eval read the embedding file block by block, only where
    they use it, and write the bytes of the same rows read whole."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("tail", [1, 2, 3, 5, 12, ASSIGN_ROWS - 1])
    def test_index_bytes_equal_those_of_the_split_read_whole(self, tmp_path, use_workers,
                                                            n_workers, tail):
        use_workers(n_workers)
        n_split = 2 * ASSIGN_ROWS + tail  # its last block runs tail rows past 2 * ASSIGN_ROWS
        n = next(n for n in itertools.count(int(n_split / 0.8) - 2) if int(0.8 * n) == n_split)
        emb, _, ckpt = _corpus(tmp_path, n)
        cli_idx = str(tmp_path / "cli.idx")
        assert main(["index", "--ckpt", ckpt, "--emb", emb, "--out", cli_idx]) == 0
        rows = np.sort(evaluation.split_indices(n, (0.8, 0.1, 0.1), 0)[0])
        assert len(rows) == n_split
        index = build_index(load_checkpoint(ckpt), read_embeddings(emb, rows), ids=rows)
        save_index(index, tmp_path / "lib.idx")
        assert (tmp_path / "cli.idx").read_bytes() == (tmp_path / "lib.idx").read_bytes()

    @pytest.mark.parametrize("with_index", [True, False])
    def test_eval_report_equals_that_of_the_whole_read(self, tmp_path, use_workers, with_index):
        use_workers(2)
        n, ratios = 2 * ASSIGN_ROWS + 100, (0.9, 0.05, 0.05)
        emb, lbl, ckpt = _corpus(tmp_path, n)
        argv = ["eval", "--ckpt", ckpt, "--emb", emb, "--labels", lbl, "--k", "10",
                "--split-ratios", "0.9,0.05,0.05", "--report", str(tmp_path / "cli.txt")]
        model, whole = load_checkpoint(ckpt), read_embeddings(emb)
        if with_index:
            idx = str(tmp_path / "c.idx")
            assert main(["index", "--ckpt", ckpt, "--emb", emb, "--split-ratios", "0.9,0.05,0.05",
                         "--out", idx]) == 0
            argv += ["--index", idx]
            index = load_index(idx)
        else:
            # the training split in split order, as eval indexed it before it read by blocks
            train = evaluation.split_indices(n, ratios, 0)[0]
            index = build_index(model, EmbeddingMatrix(whole.values[train]), ids=train)
        assert main(argv) == 0
        report = evaluation.retrieval_eval(model, whole, read_labels(lbl), k=10, ratios=ratios,
                                           index=index)
        assert (tmp_path / "cli.txt").read_text() == "".join(
            line + "\n" for line in report.format_lines())

    def test_eval_checks_only_the_rows_it_reads(self, tmp_path, capsys):
        n = 200
        emb, lbl, ckpt = _corpus(tmp_path, n)
        train, val, test = evaluation.split_indices(n, (0.8, 0.1, 0.1), 0)
        idx = str(tmp_path / "c.idx")
        assert main(["index", "--ckpt", ckpt, "--emb", emb, "--out", idx]) == 0
        argv = ["eval", "--ckpt", ckpt, "--emb", emb, "--labels", lbl, "--k", "5"]

        _poison(emb, val[3])  # read by neither eval, nor index
        assert main(argv + ["--index", idx]) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--clustering"]) == 1  # which reads every row
        assert f"byte {24 + (val[3] * 8 + 1) * 4} " in capsys.readouterr().err

        at = _poison(emb, train[7])  # indexed by eval without --index
        assert main(argv + ["--index", idx]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert f"byte {at} " in capsys.readouterr().err

        at = _poison(emb, test[3])  # a query
        assert main(argv + ["--index", idx]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"byte {at} " in captured.err

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("bad", [(ASSIGN_ROWS + 5, 100), (ASSIGN_ROWS + 50, ASSIGN_ROWS + 5)],
                             ids=["two-blocks", "one-block"])
    def test_non_finite_split_row_fails_index_naming_the_lowest(self, tmp_path, capsys,
                                                                use_workers, n_workers, bad):
        use_workers(n_workers)
        n = 3 * ASSIGN_ROWS  # the split's 9,830 rows are two blocks
        emb, _, ckpt = _corpus(tmp_path, n)
        rows = np.sort(evaluation.split_indices(n, (0.8, 0.1, 0.1), 0)[0])
        offsets = [_poison(emb, rows[at]) for at in bad]
        before = sorted(os.listdir(tmp_path))
        code = main(["index", "--ckpt", ckpt, "--emb", emb, "--out", str(tmp_path / "c.idx")])
        assert code == 1
        assert f"byte {min(offsets)} " in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before  # no index, no temporary file

    @pytest.mark.parametrize("streamed", [True, False], ids=["streamed", "held"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_non_finite_split_row_fails_train_before_any_step(self, tmp_path, capsys, monkeypatch,
                                                              use_workers, n_workers, streamed):
        from micpq import trainer

        use_workers(n_workers)
        if streamed:
            monkeypatch.setattr(trainer, "HOLD_BYTES", 0)
        n = 300
        emb, _, _ = _corpus(tmp_path, n)
        rows, val, _ = evaluation.split_indices(n, (0.8, 0.1, 0.1), 0)
        out, log = tmp_path / "t.ckpt", tmp_path / "t.log"
        argv = ["train", "--emb", emb, "--M", "2", "--K", "4", "--sub-dim", "3", "--epochs", "1",
                "--batch-size", "32", "--out", str(out), "--log", str(log)]
        _poison(emb, val[0])  # outside the split, so never read
        assert main(argv) == 0
        out.unlink()
        log.unlink()
        before = sorted(os.listdir(tmp_path))
        offsets = [_poison(emb, row) for row in np.sort(rows)[[-1, len(rows) // 2]]]

        def step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(trainer, "loss_and_gradients", step)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite value at byte ")
        assert f"byte {min(offsets)} " in err
        assert sorted(os.listdir(tmp_path)) == before  # no checkpoint, log or temporary file

    @pytest.mark.parametrize("command", ["index", "eval", "train"])
    def test_peak_memory_stays_below_the_corpus(self, tmp_path, use_workers, command):
        # tracemalloc sees numpy's data buffers; the corpus is 10.24 MB
        use_workers(1)
        n, dim = 40_000, 64
        emb, lbl, ckpt = _corpus(tmp_path, n, dim=dim)
        idx = str(tmp_path / "c.idx")
        ratios = ["--split-ratios", "0.9,0.08,0.02"]
        argv = ["index", "--ckpt", ckpt, "--emb", emb, "--out", idx, *ratios]
        if command == "train":
            argv = ["train", "--emb", emb, "--M", "2", "--K", "4", "--sub-dim", "3",
                    "--epochs", "1", "--out", str(tmp_path / "t.ckpt"), *ratios]
        if command == "eval":
            assert main(argv) == 0
            argv = ["eval", "--ckpt", ckpt, "--emb", emb, "--labels", lbl, "--k", "10",
                    "--index", idx, *ratios]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * dim * 4


class TestLibraryRules:
    """Rules the command line leaves to the library it calls."""

    def _model(self, emb, n_codewords):
        cfg = TrainConfig(n_codebooks=2, n_codewords=n_codewords, sub_dim=2)
        return init_model(cfg, emb.values)

    def test_hamming_eval_refuses_k4_before_building_an_index(self, tmp_path, monkeypatch):
        emb_path, lbl_path = _synth(tmp_path)
        emb = read_embeddings(emb_path)
        labels = read_labels(lbl_path, expected_n_docs=emb.n_docs)

        def fail(*args, **kwargs):
            raise AssertionError("build_index called")

        monkeypatch.setattr(evaluation, "build_index", fail)
        with pytest.raises(KNot2Error, match="hamming mode requires K=2"):
            evaluation.retrieval_eval(self._model(emb, 4), emb, labels, k=5, mode="hamming")

    def test_index_must_match_the_model(self, tmp_path):
        emb_path, lbl_path = _synth(tmp_path)
        emb = read_embeddings(emb_path)
        labels = read_labels(lbl_path, expected_n_docs=emb.n_docs)
        other = build_index(self._model(emb, 2), emb)
        with pytest.raises(ConfigMismatchError):
            evaluation.retrieval_eval(self._model(emb, 4), emb, labels, k=5, index=other)


class TestExports:
    def test_every_exported_name_resolves(self):
        # the names are imported on first use, so a stale one fails only there
        for name in micpq.__all__:
            module, _, _ = getattr(micpq, name).__module__.partition(".")
            assert module == "micpq", name
        with pytest.raises(AttributeError):
            micpq.not_exported


class TestThreads:
    """``--threads`` must reach the environment before numpy first loads."""

    def _python(self, code):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(micpq.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout.strip().splitlines()[-1]

    def test_importing_the_cli_loads_no_numpy(self):
        assert self._python("import sys, micpq.cli; print('numpy' in sys.modules)") == "False"

    def test_threads_flag_set_before_numpy_loads(self, tmp_path):
        code = f"""
import os, sys
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Watch())
from micpq.cli import main
main(["synth", "--n", "8", "--dim", "2", "--classes", "2", "--out", {str(tmp_path)!r},
      "--threads", "1"])
print(seen)
"""
        assert self._python(code) == "['1']"

    def test_only_eval_clustering_loads_scipy(self, tmp_path):
        code = f"""
import sys
from micpq.cli import main
d = {str(tmp_path)!r}
emb, lbl, ckpt, idx = d + "/data.emb", d + "/data.lbl", d + "/m.ckpt", d + "/c.idx"
runs = [
    ["synth", "--n", "40", "--dim", "4", "--classes", "4", "--sep", "20", "--out", d],
    ["train", "--emb", emb, "--M", "2", "--K", "4", "--sub-dim", "2", "--epochs", "1",
     "--batch-size", "16", "--out", ckpt, "--log", d + "/train.log"],
    ["index", "--ckpt", ckpt, "--emb", emb, "--out", idx],
    ["search", "--index", idx, "--ckpt", ckpt, "--queries", emb, "--k", "3"],
    ["eval", "--ckpt", ckpt, "--emb", emb, "--labels", lbl, "--k", "3", "--index", idx],
    ["eval", "--ckpt", ckpt, "--emb", emb, "--labels", lbl, "--k", "3", "--clustering"],
]
seen = []
for argv in runs:
    assert main(argv) == 0, argv
    seen.append(" ".join(argv[:1] + [a for a in argv if a == "--clustering"])
                + "=" + str("scipy" in sys.modules))
print(seen)
"""
        assert self._python(code) == str([
            "synth=False", "train=False", "index=False", "search=False", "eval=False",
            "eval --clustering=True",
        ])
