"""Command-line contracts: artifact sets, exit codes, determinism, and
config merge precedence.  Commands run in-process via main(argv), except
the pinned runs, which run in a child process on OpenBLAS's Haswell
kernels; the corruption self-tests restore ``tensor._make`` afterwards, and
one of them runs in a subprocess to see the real exit code."""

import argparse
import csv
import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from haswell_kernels import run_on_haswell_kernels
from hgtnet import checkpoint as ckpt
from hgtnet import cli, data
from hgtnet import tensor as T
from hgtnet import training as tr
from hgtnet.cli import build_parser, main
from hgtnet.config import (load_run_config, render_run_config,
                           run_config_from_kv, run_config_to_kv)
from hgtnet.errors import CheckpointError, ConfigError, HgtnetError
from hgtnet.gradcheck import op_battery
from hgtnet.kvtext import parse_kv
from hgtnet.metrics import PredictionRecord, write_predictions
from hgtnet.model import ModelConfig, tiny_config
from hgtnet.ppm import from_unit, read_ppm
from hgtnet.rng import RngStream

TRAIN_ARGS = ["train", "--synth", "--per-class", "8", "--tiny",
              "--image-size", "32", "--epochs", "2", "--lr", "3e-3",
              "--seed", "7"]


# what the TRAIN_ARGS run writes on OpenBLAS's Haswell (AVX2) kernels: the
# SHA-256 of its final parameters (bytes in sorted name order), its
# per-epoch train and test losses, and the SHA-256 of its predictions.csv
TINY_RUN_PARAMS_SHA256 = "12c4285bc5cf8eeef7603c9387d051eac76039e7839ea71700a4999385f1e3b6"
TINY_RUN_TRAIN_LOSSES = [1.7210075959983826, 1.6480008107472421]
TINY_RUN_TEST_LOSSES = [1.5167721432212826, 1.4534223151484547]
TINY_RUN_PREDICTIONS_SHA256 = "6648624d2718b523093f9bed49ede4372eba3608f68beeea9003cd0bdfa4d752"
# and the SHA-256 of its best.ckpt, so that the checkpoint's bytes change
# only with a deliberate edit of this pin
TINY_RUN_BEST_CKPT_SHA256 = "f7504d65477b237d95b890e1c2f2e0747450d876adb7754b69a2711c927efee8"

# the bitwise reference: two epochs of the paper-default model on
# synth_dataset(2, 224, RngStream(seed=5)) at batch 4 and seed 5, then an
# evaluate of the same 10 samples, on the Haswell kernels.  The pins are
# the epoch losses, the SHA-256 over each sorted parameter name's
# parameter, m and v bytes, the SHA-256 of the scores (little-endian
# float64, sample order) and the mean eval loss
PAPER_RUN_LOSSES = [1.7118245549402686, 1.6106984244885687]
PAPER_RUN_STATE_SHA256 = "29fcded48639e4358c54c09c14c805b39c5e8bc5c6fcdf9af9acb7e89781dd41"
PAPER_RUN_SCORES_SHA256 = "bbb6c4d69384d78b9dc3d96a35f087487b9a245353422fef4d56a9874d0cf091"
PAPER_RUN_EVAL_LOSS = 1.3786518457797226


def _train(tmp_path, sub="run", extra=()):
    out = tmp_path / sub
    code = main(TRAIN_ARGS + ["--out", str(out)] + list(extra))
    assert code == 0
    return out


def _run_pinned(call):
    """Run ``call``, a call of one of this module's pinned workloads, in a
    child Python on OpenBLAS's Haswell kernels, which the pins were taken
    on; ``run_on_haswell_kernels`` skips where the CPU lacks them."""
    previous = T.pin_blas_threads(1)
    if previous is None:
        pytest.skip("numpy's BLAS has no thread-count symbols to pin")
    T.pin_blas_threads(previous)
    run_on_haswell_kernels(f"import test_cli\ntest_cli.{call}\n")


# train_epoch and evaluate both run BLAS on one thread, and evaluate
# forwards each sample alone, so none of these pinned workloads depends on
# the host's BLAS thread count or core count
def tiny_run_matches_its_pinned_bits(tmp):
    out = _train(Path(tmp))
    params = tr.load_state(out / "last.ckpt").params
    digest = hashlib.sha256(b"".join(params[n].data.tobytes()
                                     for n in sorted(params))).hexdigest()
    with open(out / "history.csv", encoding="utf-8", newline="") as fh:
        history = list(csv.DictReader(fh))
    predictions = hashlib.sha256((out / "predictions.csv").read_bytes()).hexdigest()
    assert ((digest, [float(r["train_loss"]) for r in history],
             [float(r["test_loss"]) for r in history], predictions)
            == (TINY_RUN_PARAMS_SHA256, TINY_RUN_TRAIN_LOSSES, TINY_RUN_TEST_LOSSES,
                TINY_RUN_PREDICTIONS_SHA256)), (
        "the tiny run's bits moved: ROADMAP.md's bitwise rule (under 'Open "
        "items') says when a change may move them, and such a change updates "
        "this pin")


def tiny_run_writes_its_pinned_checkpoint_bytes(tmp):
    best = (_train(Path(tmp)) / "best.ckpt").read_bytes()
    assert hashlib.sha256(best).hexdigest() == TINY_RUN_BEST_CKPT_SHA256, (
        "best.ckpt's bytes moved: a change to the checkpoint format or to the "
        "tiny run's bits updates this pin")


def paper_default_run_matches_its_pinned_bits():
    samples = data.synth_dataset(2, 224, RngStream(seed=5))
    stats = data.compute_stats(samples)
    state = tr.init_state(ModelConfig(), tr.TrainConfig(batch_size=4, seed=5), stats,
                          [f"class{i}" for i in range(5)])
    losses = [tr.train_epoch(state.params, state.model_cfg, state.train_cfg, samples,
                             stats, data.train_policy(224), state.adam, epoch)[0]
              for epoch in range(2)]
    tables = ({n: p.data for n, p in state.params.items()}, state.adam.m, state.adam.v)
    state_digest = hashlib.sha256(b"".join(
        t[n].tobytes() for n in sorted(state.params) for t in tables)).hexdigest()
    eval_loss, _, records = tr.evaluate(state.params, state.model_cfg, samples, stats)
    scores = np.array([r.scores for r in records], dtype="<f8")
    assert ((losses, state_digest, hashlib.sha256(scores.tobytes()).hexdigest(), eval_loss)
            == (PAPER_RUN_LOSSES, PAPER_RUN_STATE_SHA256, PAPER_RUN_SCORES_SHA256,
                PAPER_RUN_EVAL_LOSS)), (
        "the paper-default run's bits moved: ROADMAP.md's bitwise rule (under "
        "'Open items') says when a change may move them, and such a change "
        "updates these pins")


class TestConfigMerge:
    def test_defaults_round_trip(self):
        cfg = run_config_from_kv({"model.image_size": "32"})
        assert run_config_from_kv(run_config_to_kv(cfg)) == cfg

    # one valid value away from the default for every key that
    # train --print-config lists, in its text form
    LIVE_VALUES = {
        "model.image_size": "32", "model.patch_size": "8", "model.embed_dim": "64",
        "model.num_heads": "8", "model.num_encoder_layers": "2", "model.mlp_ratio": "2.0",
        "model.cnn_channels": "8,16,32", "model.dropout_p": "0.2",
        "train.learning_rate": "0.001", "train.batch_size": "8", "train.max_epochs": "3",
        "train.patience": "2", "train.seed": "7",
        "run.data_root": "some/tree", "run.out_dir": "some/run"}

    def test_every_run_config_key_is_live(self, capsys):
        # a key whose value changes nothing, or a key without a row here,
        # fails: each --set moves both the resolved config and its text
        assert main(["train", "--print-config"]) == 0
        default_text = capsys.readouterr().out
        assert {ln.split(" = ")[0] for ln in default_text.splitlines()} == set(self.LIVE_VALUES)
        default = cli._resolve(build_parser().parse_args(["train"]))
        for key, value in self.LIVE_VALUES.items():
            argv = ["train", "--set", f"{key}={value}"]
            cfg = cli._resolve(build_parser().parse_args(argv))
            assert cfg != default, key
            assert run_config_from_kv(parse_kv(render_run_config(cfg), "mem")) == cfg, key
            assert main(argv + ["--print-config"]) == 0
            text = capsys.readouterr().out
            assert text != default_text and f"{key} = {value}\n" in text, key

    def test_file_overrides_defaults_and_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\n"
                        "model.image_size = 64\n"
                        "train.batch_size = 4\n")
        cfg = load_run_config(str(path), {})
        assert cfg.model.image_size == 64
        assert cfg.train.batch_size == 4
        cfg = load_run_config(str(path), {"train.batch_size": "2"})
        assert cfg.train.batch_size == 2
        assert cfg.model.image_size == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            run_config_from_kv({"model.imge_size": "32"})

    def test_tiny_overrides_resolve_to_tiny_config(self):
        args = build_parser().parse_args(["train", "--tiny", "--image-size", "48"])
        assert cli._resolve(args).model == tiny_config(image_size=48)

    def test_print_config_keys(self, capsys):
        assert main(["train", "--print-config"]) == 0
        keys = [ln.split(" = ")[0] for ln in capsys.readouterr().out.splitlines()]
        assert keys == [
            "model.image_size", "model.patch_size", "model.embed_dim",
            "model.num_heads", "model.num_encoder_layers", "model.mlp_ratio",
            "model.cnn_channels", "model.dropout_p",
            "train.learning_rate", "train.batch_size", "train.max_epochs",
            "train.patience", "train.seed",
            "run.data_root", "run.out_dir"]

    @pytest.mark.parametrize("pair", ["model.num_rotations=4", "aug.test.flip_prob=0",
                                      "model.graph_connectivity=grid8",
                                      "run.checkpoint=a.ckpt",
                                      # the policy target is model.image_size
                                      "aug.train.target_size=1",
                                      "aug.train.target_size=0,0",
                                      # constants now, and the class count is the dataset's
                                      "model.gat_leaky_slope=nan", "model.gat_leaky_slope=inf",
                                      "train.adam_eps=nan", "train.adam_eps=inf",
                                      "model.rotation_loss_weight=nan",
                                      "model.rotation_loss_weight=inf",
                                      "train.adam_beta1=0.9", "train.adam_beta2=0.999",
                                      "model.num_classes=2",
                                      # the augmentation stack is data.train_policy's
                                      "aug.train.flip_prob=0.25",
                                      "aug.train.max_rotation_deg=nan",
                                      "aug.train.jitter_brightness=0.3",
                                      "aug.train.jitter_contrast=0.4",
                                      "aug.train.jitter_saturation=0.1",
                                      "aug.train.jitter_hue=0.125",
                                      "aug.train.sharpness_factor=1.5",
                                      "aug.train.sharpness_prob=0.75",
                                      "aug.train.blur_kernel=1",
                                      "aug.train.blur_sigma=0.5,1.5"])
    def test_removed_keys_rejected(self, pair, tmp_path, capsys):
        unknown = "unknown config keys: " + pair.split("=")[0]
        assert main(["train", "--print-config", "--set", pair]) == 2
        assert unknown in capsys.readouterr().err
        path = tmp_path / "run.cfg"
        path.write_text(pair.replace("=", " = ", 1) + "\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--print-config"]) == 2
        assert unknown in capsys.readouterr().err

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfemodel.image_size = 32\n")
        assert main(["train", "--config", str(path), "--print-config"]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_render_parses_back(self):
        cfg = run_config_from_kv({"model.image_size": "32"})
        text = render_run_config(cfg)
        assert run_config_from_kv(parse_kv(text, "mem")) == cfg


_FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

_KEYS = list(run_config_to_kv(run_config_from_kv({})))


def _load_config_bytes(tmp_path, blob):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        return load_run_config(str(path), {})
    except HgtnetError:
        return None


class TestConfigFuzz:
    """Whatever the text or bytes, parsing returns a value or raises an
    HgtnetError; any other exception fails the property."""

    @_FUZZ
    @given(text=st.text(max_size=200))
    def test_parse_kv_arbitrary_text(self, text):
        try:
            assert isinstance(parse_kv(text, "mem"), dict)
        except ConfigError:
            pass

    @_FUZZ
    @given(blob=st.binary(max_size=256))
    def test_config_file_arbitrary_bytes(self, tmp_path, blob):
        _load_config_bytes(tmp_path, blob)

    @_FUZZ
    @given(pairs=st.lists(st.tuples(
        st.sampled_from(_KEYS),
        st.sampled_from(["0", "1", "-3", "2", "0.5", "nan", "inf", "1e400", "4,4",
                         ",", "none", "x", ""])), max_size=6))
    def test_config_file_known_keys_with_odd_values(self, tmp_path, pairs):
        text = "".join(f"{k} = {v}\n" for k, v in pairs)
        _load_config_bytes(tmp_path, text.encode("utf-8"))


class TestTrainCommand:
    def test_artifacts_and_history_rows(self, tmp_path):
        out = _train(tmp_path)
        for name in ("best.ckpt", "last.ckpt", "history.csv",
                     "predictions.csv", "report.txt", "confusion.csv"):
            assert (out / name).exists(), name
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,train_acc,test_loss,test_acc"
        assert len(history) == 3  # header + 2 epochs

    def test_rerun_is_bitwise_identical(self, tmp_path):
        a = _train(tmp_path, "a")
        b = _train(tmp_path, "b")
        for name in ("history.csv", "predictions.csv", "report.txt", "best.ckpt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    # the pins hold on OpenBLAS's Haswell kernels, so the workloads run there
    def test_tiny_run_matches_its_pinned_bits(self, tmp_path):
        _run_pinned(f"tiny_run_matches_its_pinned_bits({str(tmp_path)!r})")

    def test_tiny_run_writes_its_pinned_checkpoint_bytes(self, tmp_path):
        _run_pinned(f"tiny_run_writes_its_pinned_checkpoint_bytes({str(tmp_path)!r})")

    def test_paper_default_run_matches_its_pinned_bits(self):
        _run_pinned("paper_default_run_matches_its_pinned_bits()")

    def test_different_seed_changes_history(self, tmp_path):
        a = _train(tmp_path, "a")
        out_b = tmp_path / "b"
        args = [v if v != "7" else "8" for v in TRAIN_ARGS]
        assert main(args + ["--out", str(out_b)]) == 0
        assert (a / "history.csv").read_bytes() != (out_b / "history.csv").read_bytes()

    def test_no_data_source_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "synth" in capsys.readouterr().err

    def test_synth_with_data_is_config_error(self, tmp_path, capsys):
        # the synthetic set would be trained on while run.data_root named the tree
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "1",
                     "--image-size", "32"]) == 0
        out = tmp_path / "x"
        code = main(TRAIN_ARGS + ["--data", str(tree), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--synth and --data" in err
        assert not out.exists()

    def test_empty_data_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["train", "--data", str(empty), "--out", str(tmp_path / "x")])
        assert code == 3

    def test_class_of_one_image_is_data_error_before_training(self, tmp_path, capsys):
        # the lone image went to the test split, so its class was never trained
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "2",
                     "--image-size", "32", "--seed", "5"]) == 0
        (tree / "class4" / "0001.ppm").unlink()
        capsys.readouterr()
        out = tmp_path / "x"
        code = main(["train", "--data", str(tree), "--tiny", "--image-size", "32",
                     "--epochs", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "class 4" in err and "class4/0000.ppm" in err
        assert not out.exists()

    def test_comma_in_class_name_is_data_error_before_training(self, tmp_path, capsys):
        # a checkpoint stores the class names comma-joined
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "2",
                     "--image-size", "32", "--seed", "5"]) == 0
        (tree / "class2").rename(tree / "class,2")
        out = tmp_path / "x"
        code = main(["train", "--data", str(tree), "--tiny", "--image-size", "32",
                     "--epochs", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "'class,2'" in err
        assert not (out / "best.ckpt").exists()

    @pytest.mark.parametrize("name", [" class2", "class\n2"])
    def test_class_name_the_checkpoint_cannot_return_is_data_error(self, name, tmp_path,
                                                                   capsys):
        # the leading space was stripped when the checkpoint was read back,
        # and the line break made both checkpoints unreadable
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "2",
                     "--image-size", "32", "--seed", "5"]) == 0
        (tree / "class2").rename(tree / name)
        out = tmp_path / "x"
        code = main(["train", "--data", str(tree), "--tiny", "--image-size", "32",
                     "--epochs", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and repr(name) in err
        assert not (out / "best.ckpt").exists() and not (out / "last.ckpt").exists()

    @pytest.mark.parametrize("renamed", ["class2/0001.ppm", "class2"])
    def test_name_that_is_not_utf8_is_data_error_before_training(self, renamed, tmp_path,
                                                                 capsys):
        # the whole run trained and wrote both checkpoints, then
        # write_predictions failed on the id with a UnicodeEncodeError
        tree = _tree_with_a_non_utf8_name(tmp_path, renamed)
        out = tmp_path / "x"
        code = main(["train", "--data", str(tree), "--tiny", "--image-size", "32",
                     "--epochs", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "must be UTF-8" in err
        assert not out.exists()

    def test_two_class_tree_trains_evaluates_and_scores(self, tmp_path, capsys):
        # the class count comes from the tree, with no --set
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "4",
                     "--image-size", "32"]) == 0
        for k in (2, 3, 4):
            shutil.rmtree(tree / f"class{k}")
        out = tmp_path / "run"
        assert main(["train", "--data", str(tree), "--tiny", "--image-size", "32",
                     "--epochs", "1", "--out", str(out)]) == 0
        metadata = ckpt.load_checkpoint(out / "best.ckpt")[0]
        assert metadata["model.num_classes"] == "2"
        assert metadata["data.class_names"] == "class0,class1"
        assert main(["eval", "--checkpoint", str(out / "best.ckpt"), "--data", str(tree),
                     "--out", str(tmp_path / "ev")]) == 0
        assert main(["metrics", "--predictions", str(tmp_path / "ev" / "predictions.csv")]) == 0

    def test_one_class_tree_is_config_error(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "2",
                     "--image-size", "32"]) == 0
        for k in (1, 2, 3, 4):
            shutil.rmtree(tree / f"class{k}")
        out = tmp_path / "x"
        code = main(["train", "--data", str(tree), "--tiny", "--image-size", "32",
                     "--epochs", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "num_classes must be >= 2" in err
        assert not out.exists()

    def test_invalid_geometry_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--synth", "--image-size", "30",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "divisible" in capsys.readouterr().err

    def test_run_checkpoint_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(TRAIN_ARGS + ["--out", str(out), "--set", "run.checkpoint=a.ckpt"])
        assert code == 2
        assert "run.checkpoint" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pair", [
        "model.mlp_ratio=0", "model.mlp_ratio=-1", "model.mlp_ratio=nan",
        "model.mlp_ratio=0.01", "model.cnn_channels=0", "model.cnn_channels=4,0",
        "train.learning_rate=nan", "train.learning_rate=inf", "run.out_dir="])
    def test_out_of_range_value_is_config_error(self, pair, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(TRAIN_ARGS + ["--out", str(out), "--set", pair])
        assert code == 2
        assert pair.split("=")[0].split(".")[1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pair", [
        "model.mlp_ratio=1e300", "model.mlp_ratio=1e308", "model.embed_dim=1000000",
        "model.cnn_channels=1000000000", "model.num_encoder_layers=1000000000"])
    def test_oversized_model_is_config_error(self, pair, tmp_path, capsys):
        # rejected from the shapes alone: nothing of that size is allocated
        out = tmp_path / "x"
        code = main(["train", "--synth", "--tiny", "--image-size", "32", "--per-class", "2",
                     "--epochs", "1", "--out", str(out), "--set", pair])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        # 1e308 overflows embed_dim * mlp_ratio, which the mlp_ratio check catches
        assert ("mlp_ratio" if pair.endswith("e308") else "limit is") in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run_exits_6(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["train", "--synth", "--tiny", "--image-size", "32",
                     "--per-class", "4", "--epochs", "2", "--lr", "1e300",
                     "--seed", "7", "--out", str(out)])
        assert code == 6
        assert "epoch 1: non-finite loss" in capsys.readouterr().err
        assert not (out / "best.ckpt").exists() and not (out / "last.ckpt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_blow_up_exits_6(self, tmp_path, capsys):
        # the epoch's one step passed the gradient-norm guard, its update
        # blew the parameters up, and the run exited 0 with a best.ckpt
        # whose test loss is 2.3e12
        out = tmp_path / "x"
        code = main(["train", "--synth", "--tiny", "--image-size", "32",
                     "--per-class", "4", "--epochs", "1", "--lr", "1e6",
                     "--seed", "7", "--out", str(out)])
        assert code == 6
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "epoch 1: non-finite loss or a loss above 1e+06" in err
        assert "test 2.32961e+12" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--synth", "--per-class", "-3"],
        ["train", "--synth", "--per-class", "0"],
        ["train", "--synth", "--image-size", "zero"],
        ["augment", "--input", "x.ppm", "--image-size", "-1"],
        ["train", "--synth", "--image-size", "-32"],
        ["synth", "--image-size", "0"],
        ["synth", "--per-class", "0"],
        ["augment", "--input", "x.ppm", "--image-size", "0"]])
    def test_non_positive_count_flags_rejected(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--synth", "--tiny", "--image-size", "32", "--per-class", "2"],
        ["eval", "--synth", "--checkpoint", "m.ckpt"],
        ["synth", "--per-class", "1", "--image-size", "16"],
        ["augment", "--input", "x.ppm"],
        ["metrics", "--predictions", "p.csv"]])
    def test_empty_out_rejected(self, argv, tmp_path, monkeypatch, capsys):
        # train, eval and augment exited 4 on makedirs(''), synth wrote its
        # class directories into the working directory, and metrics wrote
        # no tables; train's --out is the run.out_dir key, the others' are
        # argparse's
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv + ["--out", ""])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "--out" in err and ("is empty" in err or "expected an output directory" in err)
        assert os.listdir(tmp_path) == []

    def test_per_class_without_synth_rejected(self, tmp_path, capsys):
        # the flag was ignored and the run trained on the tree
        tree, out = tmp_path / "tree", tmp_path / "x"
        assert main(["synth", "--out", str(tree), "--per-class", "2",
                     "--image-size", "32"]) == 0
        code = main(["train", "--data", str(tree), "--per-class", "5", "--tiny",
                     "--image-size", "32", "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert "--per-class sizes the synthetic dataset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["train", "--synth"],
                                      ["eval", "--synth", "--checkpoint", "a.ckpt"]])
    def test_eval_threads_flag_is_unknown(self, argv, tmp_path, capsys):
        # evaluation picks its own worker threads
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--eval-threads", "2", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --eval-threads 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_print_config_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(TRAIN_ARGS + ["--out", str(out), "--print-config"])
        assert code == 0
        assert "model.embed_dim = 8" in capsys.readouterr().out
        assert not out.exists()


def _tree_with_a_non_utf8_name(tmp_path, renamed):
    """A synthetic tree in which ``renamed`` (a class directory or a file)
    ends in the byte 0xff, which is not UTF-8."""
    tree = tmp_path / "tree"
    assert main(["synth", "--out", str(tree), "--per-class", "2",
                 "--image-size", "32", "--seed", "5"]) == 0
    path = tree / renamed
    path.rename(path.with_name(path.stem + os.fsdecode(b"\xff") + path.suffix))
    return tree


@pytest.fixture(scope="module")
def tiny_best_ckpt(tmp_path_factory):
    """The bytes of the TRAIN_ARGS run's best.ckpt."""
    return (_train(tmp_path_factory.mktemp("tiny")) / "best.ckpt").read_bytes()


def _untrained_checkpoint(path):
    state = tr.init_state(tiny_config(), tr.TrainConfig(seed=7),
                          data.DatasetStats(mean=np.full(3, 0.5), std=np.full(3, 0.2)),
                          [f"class{k}" for k in range(5)])
    tr.save_state(state, path)
    return path


class TestEvalCommand:
    def test_eval_reproduces_training_report(self, tmp_path):
        out = _train(tmp_path)
        eval_out = tmp_path / "eval"
        # eval --synth rebuilds the set of the checkpoint's --per-class 8 run
        code = main(["eval", "--checkpoint", str(out / "best.ckpt"), "--synth",
                     "--out", str(eval_out)])
        assert code == 0
        assert (out / "report.txt").read_bytes() == (eval_out / "report.txt").read_bytes()
        assert (out / "predictions.csv").read_bytes() == \
            (eval_out / "predictions.csv").read_bytes()

    def test_eval_reproduces_a_train_whose_last_test_batch_has_one_sample(self, tmp_path):
        # 10 test samples at batch 3 end in a one-sample batch; a batched
        # forward gave such a sample other last bits than eval's batch did
        out = tmp_path / "run"
        assert main(["train", "--synth", "--per-class", "20", "--tiny", "--image-size", "32",
                     "--epochs", "1", "--batch-size", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        assert len((out / "predictions.csv").read_text().splitlines()) == 1 + 10
        eval_out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(out / "best.ckpt"), "--synth",
                     "--out", str(eval_out)]) == 0
        assert (out / "predictions.csv").read_bytes() == \
            (eval_out / "predictions.csv").read_bytes()

    def test_synth_with_data_is_config_error(self, tmp_path, capsys):
        state = tr.load_state(_untrained_checkpoint(tmp_path / "a.ckpt"))
        state.synth_per_class = 2
        tr.save_state(state, tmp_path / "a.ckpt")
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "1",
                     "--image-size", "32"]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"), "--synth",
                     "--data", str(tree), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--synth and --data" in err
        assert not (tmp_path / "x").exists()

    def test_synth_eval_without_recorded_count_exit_5(self, tmp_path, capsys):
        # a checkpoint from a --data run records no synthetic per-class count
        code = main(["eval", "--checkpoint", str(_untrained_checkpoint(tmp_path / "a.ckpt")),
                     "--synth", "--out", str(tmp_path / "x")])
        assert code == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "per-class count" in err
        assert not (tmp_path / "x").exists()

    def test_non_finite_checkpoint_exit_5(self, tmp_path, capsys):
        state = tr.load_state(_untrained_checkpoint(tmp_path / "a.ckpt"))
        state.synth_per_class = 2
        tr.save_state(state, tmp_path / "a.ckpt")
        # save_state refuses NaN parameters, so the file format's own writer
        # puts them in
        metadata, arrays = ckpt.load_checkpoint(tmp_path / "a.ckpt")
        for name in state.params:
            arrays[name][...] = np.nan
        ckpt.save_checkpoint(tmp_path / "a.ckpt", metadata, arrays)
        code = main(["eval", "--checkpoint", str(tmp_path / "a.ckpt"), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "non-finite value" in err
        assert not (tmp_path / "x").exists()

    def test_eval_has_no_per_class_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--checkpoint", "a.ckpt", "--synth", "--per-class", "8",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_accuracy_matches_confusion_csv(self, tmp_path):
        out = _train(tmp_path)
        rows = (out / "confusion.csv").read_text().splitlines()[1:]
        grid = np.array([[int(v) for v in r.split(",")[1:]] for r in rows])
        accuracy = np.trace(grid) / grid.sum()
        report = (out / "report.txt").read_text()
        acc_row = next(ln for ln in report.splitlines()
                       if ln.strip().startswith("Accuracy"))
        from decimal import ROUND_HALF_UP, Decimal
        expect = str(Decimal(repr(float(accuracy))).quantize(
            Decimal("0.01"), rounding=ROUND_HALF_UP))
        assert acc_row.split()[1] == expect

    def test_missing_checkpoint_exit_5_names_path(self, tmp_path, capsys):
        missing = tmp_path / "ghost.ckpt"
        code = main(["eval", "--checkpoint", str(missing), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        assert str(missing) in capsys.readouterr().err

    def test_garbage_checkpoint_exit_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code = main(["eval", "--checkpoint", str(bad), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        assert "magic" in capsys.readouterr().err


    def test_checkpoint_missing_a_parameter_exit_5(self, tmp_path, capsys):
        metadata, arrays = ckpt.load_checkpoint(_untrained_checkpoint(tmp_path / "full.ckpt"))
        for key in ("gat.w", "m.gat.w", "v.gat.w"):
            del arrays[key]
        partial = tmp_path / "partial.ckpt"
        ckpt.save_checkpoint(partial, metadata, arrays)
        code = main(["eval", "--checkpoint", str(partial), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        assert "gat.w" in capsys.readouterr().err

    def test_checkpoint_with_oversized_config_exit_5(self, tmp_path, capsys):
        metadata, arrays = ckpt.load_checkpoint(_untrained_checkpoint(tmp_path / "full.ckpt"))
        metadata["model.mlp_ratio"] = "1e300"
        huge = tmp_path / "huge.ckpt"
        ckpt.save_checkpoint(huge, metadata, arrays)
        code = main(["eval", "--checkpoint", str(huge), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        assert "limit is" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("stats.mean", "0.5,0.5"), ("stats.std", "0.0,-1.0,0.2"), ("stats.std", "nan,nan,nan")])
    def test_checkpoint_with_bad_statistics_exit_5(self, key, value, tmp_path, capsys):
        metadata, arrays = ckpt.load_checkpoint(_untrained_checkpoint(tmp_path / "full.ckpt"))
        metadata[key] = value
        bad = tmp_path / "bad.ckpt"
        ckpt.save_checkpoint(bad, metadata, arrays)
        code = main(["eval", "--checkpoint", str(bad), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "statistics need 3 finite" in err
        assert not (tmp_path / "x").exists()

    def test_checkpoint_with_wrong_class_name_count_exit_5(self, tmp_path, capsys):
        metadata, arrays = ckpt.load_checkpoint(_untrained_checkpoint(tmp_path / "full.ckpt"))
        metadata["data.class_names"] = "class0,class1,class2,class3"
        bad = tmp_path / "bad.ckpt"
        ckpt.save_checkpoint(bad, metadata, arrays)
        code = main(["eval", "--checkpoint", str(bad), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "data.class_names must list 5" in err

    def test_checkpoint_with_one_flipped_bit_exit_5(self, tmp_path, tiny_best_ckpt, capsys):
        # without a checksum this file loaded with one parameter changed and
        # evaluated with exit 0
        blob = bytearray(tiny_best_ckpt)
        blob[-100] ^= 1
        flipped = tmp_path / "flipped.ckpt"
        flipped.write_bytes(bytes(blob))
        code = main(["eval", "--checkpoint", str(flipped), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "CRC-32 mismatch" in err
        assert not (tmp_path / "x").exists()

    @_FUZZ
    @given(data=st.data())
    def test_any_bit_flip_or_truncation_of_a_tiny_checkpoint_refused(self, tmp_path,
                                                                     tiny_best_ckpt, data):
        blob = bytearray(tiny_best_ckpt)
        if data.draw(st.booleans(), label="flip"):
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << bit % 8
        else:
            del blob[data.draw(st.integers(0, len(blob) - 1), label="length"):]
        path = tmp_path / "mutant.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            tr.load_state(path)

    def test_checkpoint_of_format_version_1_exit_5(self, tmp_path, capsys):
        # the version field is checked before the CRC-32 trailer that
        # version 1 did not have
        old = tmp_path / "old.ckpt"
        blob = _untrained_checkpoint(tmp_path / "full.ckpt").read_bytes()
        old.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:-4])
        code = main(["eval", "--checkpoint", str(old), "--synth", "--out", str(tmp_path / "x")])
        assert code == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "format version 1" in err and "retrain" in err
        assert not (tmp_path / "x").exists()

    def test_checkpoint_with_negative_counter_exit_5(self, tmp_path, capsys):
        metadata, arrays = ckpt.load_checkpoint(_untrained_checkpoint(tmp_path / "full.ckpt"))
        metadata["trainer.adam_t"] = "-1"
        bad = tmp_path / "bad.ckpt"
        ckpt.save_checkpoint(bad, metadata, arrays)
        code = main(["eval", "--checkpoint", str(bad), "--synth",
                     "--out", str(tmp_path / "x")])
        assert code == 5
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "trainer counters" in err
        assert not (tmp_path / "x").exists()

    def _synth_tree(self, tmp_path):
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "2",
                     "--image-size", "32", "--seed", "5"]) == 0
        return tree

    def test_matching_tree_evaluates_whole(self, tmp_path, capsys):
        ckpt_path = _untrained_checkpoint(tmp_path / "m.ckpt")
        tree = self._synth_tree(tmp_path)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(ckpt_path), "--data", str(tree),
                     "--out", str(out)]) == 0
        assert "evaluated 10 samples" in capsys.readouterr().out
        assert len((out / "predictions.csv").read_text().splitlines()) == 11

    @pytest.mark.parametrize("change, listed", [
        ("extra", "['class0', 'class1', 'class2', 'class3', 'class4', 'class5']"),
        ("missing", "['class0', 'class1', 'class3', 'class4']")])
    def test_tree_classes_must_match_checkpoint(self, change, listed, tmp_path, capsys):
        ckpt_path = _untrained_checkpoint(tmp_path / "m.ckpt")
        tree = self._synth_tree(tmp_path)
        if change == "extra":
            shutil.copytree(tree / "class4", tree / "class5")
        else:
            shutil.rmtree(tree / "class2")
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(ckpt_path), "--data", str(tree),
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert listed in err
        assert "['class0', 'class1', 'class2', 'class3', 'class4']" in err
        assert not out.exists()

    def test_file_name_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        # the samples were scored, then write_predictions failed on the id
        ckpt_path = _untrained_checkpoint(tmp_path / "m.ckpt")
        tree = _tree_with_a_non_utf8_name(tmp_path, "class0/0000.ppm")
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(ckpt_path), "--data", str(tree),
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "must be UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "m.ckpt", "--synth", "--seed", "7"],
        ["eval", "--checkpoint", "m.ckpt", "--synth", "--set", "model.embed_dim=8"],
        ["eval", "--checkpoint", "m.ckpt", "--print-config"],
        ["augment", "--input", "x.ppm", "--data", "d"],
        # no config key changes what augment writes
        ["augment", "--input", "x.ppm", "--config", "run.cfg"],
        ["augment", "--input", "x.ppm", "--print-config"]])
    def test_flags_the_command_does_not_read_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMetricsCommand:
    def _write_figure_counts(self, path):
        records = []
        n = 0

        def add(true, pred, count):
            nonlocal n
            for _ in range(count):
                scores = [0.05, 0.05, 0.05]
                scores[pred] = 0.9
                records.append(PredictionRecord(f"s{n}", true, tuple(scores)))
                n += 1

        add(0, 0, 474), add(0, 1, 26)
        add(1, 1, 490), add(1, 2, 10)
        add(2, 2, 453), add(2, 0, 46)
        write_predictions(path, records)
        return records

    def test_figure_counts_render_expected_cells(self, tmp_path, capsys):
        path = tmp_path / "pred.csv"
        self._write_figure_counts(path)
        code = main(["metrics", "--predictions", str(path),
                     "--names", "aca,n,scc"])
        assert code == 0
        out = capsys.readouterr().out
        cells = {ln.split()[0]: ln.split()[2] for ln in out.splitlines()
                 if ln.strip() and ln.split()[0] in ("aca", "n", "scc")}
        assert cells == {"aca": "0.95", "n": "0.98", "scc": "0.91"}

    @pytest.mark.parametrize("names, position", [(",,", 1), ("aca,,scc", 2), ("aca,n,", 3)])
    def test_an_empty_name_is_a_config_error_naming_its_position(
            self, tmp_path, capsys, names, position):
        path = tmp_path / "pred.csv"
        self._write_figure_counts(path)
        out = tmp_path / "tables"
        assert main(["metrics", "--predictions", str(path), "--names", names,
                     "--out", str(out)]) == 2
        assert f"--names entry {position} of 3 is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_perfect_predictions_render_ones(self, tmp_path, capsys):
        path = tmp_path / "pred.csv"
        records = [PredictionRecord(f"s{i}", i % 2,
                                    (0.9, 0.1) if i % 2 == 0 else (0.1, 0.9))
                   for i in range(10)]
        write_predictions(path, records)
        assert main(["metrics", "--predictions", str(path)]) == 0
        out = capsys.readouterr().out
        row = next(ln for ln in out.splitlines() if "class_0" in ln)
        assert row.split()[1:4] == ["1.00", "1.00", "1.00"]

    def test_shuffled_rows_identical_output(self, tmp_path, capsys):
        path = tmp_path / "pred.csv"
        records = self._write_figure_counts(path)
        assert main(["metrics", "--predictions", str(path)]) == 0
        first = capsys.readouterr().out
        import random
        shuffled = list(records)
        random.Random(0).shuffle(shuffled)
        write_predictions(path, shuffled)
        assert main(["metrics", "--predictions", str(path)]) == 0
        assert capsys.readouterr().out == first

    def test_malformed_row_exit_3_with_line(self, tmp_path, capsys):
        path = tmp_path / "pred.csv"
        path.write_text("sample_id,true_label,score_0,score_1\n"
                        "a,0,0.6,0.4\n"
                        "b,one,0.6,0.4\n")
        assert main(["metrics", "--predictions", str(path)]) == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["7", "-1"])
    def test_label_outside_score_columns_exit_3_with_line(self, label, tmp_path, capsys):
        path = tmp_path / "pred.csv"
        path.write_text("sample_id,true_label,score_0,score_1\n"
                        "a,0,0.9,0.1\n"
                        f"b,{label},0.2,0.8\n")
        assert main(["metrics", "--predictions", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line 3" in err and f"label {label} outside [0, 2)" in err

    def test_non_utf8_predictions_exit_3(self, tmp_path, capsys):
        path = tmp_path / "pred.csv"
        path.write_bytes(b"\xff\xfesample_id,true_label,score_0,score_1\n")
        assert main(["metrics", "--predictions", str(path)]) == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_roc_dumps_written(self, tmp_path):
        path = tmp_path / "pred.csv"
        self._write_figure_counts(path)
        out = tmp_path / "m"
        assert main(["metrics", "--predictions", str(path),
                     "--out", str(out)]) == 0
        assert (out / "roc_class0.csv").exists()
        assert (out / "confusion.csv").exists()


class TestGradcheckCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["gradcheck", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "model" in out and "pass" in out

    def test_seed_change_still_passes(self, capsys):
        assert main(["gradcheck", "--seed", "12345"]) == 0

    def test_corrupted_backward_detected_in_subprocess(self):
        # the child imports hgtnet from this checkout's src/, as the tests do
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "hgtnet.cli", "gradcheck", "--corrupt", "gelu"],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 1
        assert "gelu" in proc.stdout
        assert "FAIL" in proc.stdout

    @staticmethod
    def _recorded_ops(run) -> set:
        """The op names that ``tensor._make`` records while ``run()`` runs."""
        recorded = set()
        make = T._make

        def spy(data_, name, parents, backward):
            recorded.add(name)
            return make(data_, name, parents, backward)

        T._make = spy
        try:
            run()
        finally:
            T._make = make
        return recorded

    def _checks(self):
        return op_battery(0) + [cli._model_check(0)]

    @pytest.mark.parametrize("op", cli.CORRUPTIBLE_OPS)
    def test_each_corruptible_op_is_detected(self, op, monkeypatch, capsys):
        # exactly the checks whose graph records the op fail, the tiny
        # model's among them whenever the model records it
        expected = {name for name, build, params in self._checks()
                    if op in self._recorded_ops(lambda: build(params))}
        monkeypatch.setattr(T, "_make", T._make)  # undo the hook afterwards
        assert main(["gradcheck", "--corrupt", op]) == 1
        failed = capsys.readouterr().out.splitlines()[-1]
        assert failed.startswith("gradient check FAILED for:")
        assert expected and set(failed.split(":")[1].replace(",", " ").split()) == expected

    def test_corruptible_ops_are_the_ops_the_battery_records(self):
        recorded = set()
        for _, build, params in self._checks():
            recorded |= self._recorded_ops(lambda: build(params))
        assert recorded == set(cli.CORRUPTIBLE_OPS)

    def test_every_op_a_training_step_records_is_corruptible(self):
        # one tiny step with dropout and the rotation term
        cfg = tiny_config(dropout_p=0.1)
        samples = data.synth_dataset(1, 32, RngStream(seed=2))
        stats = data.compute_stats(samples)
        state = tr.init_state(cfg, tr.TrainConfig(batch_size=len(samples)), stats,
                              [f"class{k}" for k in range(5)])
        recorded = self._recorded_ops(lambda: tr.train_epoch(
            state.params, cfg, state.train_cfg, samples, stats,
            data.train_policy(32), state.adam, 0))
        assert recorded <= set(cli.CORRUPTIBLE_OPS)
        # the battery's only extra ops are the sum that reduces each entry,
        # gelu and max_pool2d, which the model runs only inside gelu_linear
        # and its pooled convs, and take_rows, since a step forwards its
        # views and its rotated copies apart
        assert set(cli.CORRUPTIBLE_OPS) - recorded == {"sum", "gelu", "max_pool2d",
                                                       "take_rows"}

    def test_corruption_hook_passes_missing_gradients_through(self, monkeypatch):
        # mul's untracked scalar operand gets a None gradient; the hook's
        # patch of _make is undone afterwards
        monkeypatch.setattr(T, "_make", T._make)
        cli._corrupt_op("mul")
        x = T.Tensor(np.ones(3), requires_grad=True)
        T.backward(T.tsum(T.mul(x, 2.0)))
        assert np.allclose(x.grad, 2.02)


class TestSynthCommand:
    def test_tree_layout_and_count(self, tmp_path):
        out = tmp_path / "tree"
        assert main(["synth", "--out", str(out), "--per-class", "10",
                     "--image-size", "32", "--seed", "5"]) == 0
        dirs = sorted(p.name for p in out.iterdir())
        assert dirs == [f"class{k}" for k in range(5)]
        files = sorted(out.rglob("*.ppm"))
        assert len(files) == 50

    def test_tree_loads_as_dataset(self, tmp_path):
        out = tmp_path / "tree"
        assert main(["synth", "--out", str(out), "--per-class", "3",
                     "--image-size", "32", "--seed", "5"]) == 0
        samples, names = data.load_dataset(out)
        assert len(samples) == 15
        assert names == [f"class{k}" for k in range(5)]
        assert sorted({s.label for s in samples}) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("message", ["Unable to allocate 5.2 TiB for an array", ""])
    def test_out_of_memory_is_one_line_and_exit_7(self, tmp_path, monkeypatch, capsys,
                                                 message):
        # synth --image-size 30000 ended in an _ArrayMemoryError traceback, exit 1
        def no_memory(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(data, "synth_dataset", no_memory)
        out = tmp_path / "tree"
        code = main(["synth", "--out", str(out), "--per-class", "1", "--image-size", "32"])
        assert code == cli.EXIT_MEMORY == 7
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_image_size_cap(self, tmp_path, monkeypatch):
        # 3 x 6688^2 entries fit under 2^27, 3 x 6690^2 do not
        sizes = []
        monkeypatch.setattr(data, "synth_dataset", lambda **kw: sizes.append(kw["size"]) or [])
        for size in (6688, 6690):
            main(["synth", "--out", str(tmp_path / "tree"), "--image-size", str(size)])
        assert sizes == [6688]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--per-class", "2",
                         "--image-size", "32", "--seed", "9"]) == 0
        fa = sorted(a.rglob("*.ppm"))
        fb = sorted(b.rglob("*.ppm"))
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(fa, fb))


class TestImageSizedProbes:
    @pytest.mark.parametrize("argv,count", [
        (["train", "--synth", "--per-class", "2", "--epochs", "1",
          "--set", "model.image_size=8192", "--set", "model.patch_size=4096",
          "--set", "model.embed_dim=1", "--set", "model.num_heads=1"], "1.879e+9"),
        (["synth", "--per-class", "1", "--image-size", "30000"], "2.700e+9")])
    def test_exit_2_before_anything_image_sized_is_allocated(self, tmp_path, capsys,
                                                             argv, count):
        # both ended in a numpy MemoryError traceback before the image cap
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"{count} entries" in err
        assert peak < 1 << 20
        assert not out.exists()


class TestAugmentCommand:
    def _input_image(self, tmp_path):
        out = tmp_path / "tree"
        assert main(["synth", "--out", str(out), "--per-class", "1",
                     "--image-size", "48", "--seed", "2"]) == 0
        return next(out.rglob("*.ppm"))

    def test_writes_before_and_after(self, tmp_path):
        img = self._input_image(tmp_path)
        out = tmp_path / "aug"
        assert main(["augment", "--input", str(img), "--image-size", "32",
                     "--seed", "4", "--out", str(out)]) == 0
        assert (out / "before.ppm").exists() and (out / "after.ppm").exists()

    def test_after_is_the_epoch_0_view_that_training_gives_the_file(self, tmp_path):
        # keyed by the file's bare name, after.ppm showed a view that
        # training on the tree never uses
        tree = tmp_path / "tree"
        assert main(["synth", "--out", str(tree), "--per-class", "2",
                     "--image-size", "32", "--seed", "1"]) == 0
        out = tmp_path / "aug"
        assert main(["augment", "--input", str(tree / "class0" / "0000.ppm"),
                     "--image-size", "32", "--seed", "7", "--out", str(out)]) == 0
        samples, _ = data.load_dataset(tree)
        sample = next(s for s in samples if s.id == "class0/0000.ppm")
        policy = data.train_policy(32)

        def view(sample_id):
            stream = RngStream(seed=7).derive("aug", 0, sample_id)
            return data.apply_policy([sample], policy, [stream])

        # the key is the one prepare_batch uses at epoch 0
        stats = data.compute_stats(samples)
        x, _, _, _ = tr.prepare_batch([sample], policy, stats, RngStream(seed=7), epoch=0)
        assert np.array_equal(x, data.normalize(view(sample.id), stats))
        after = read_ppm(out / "after.ppm")
        assert np.array_equal(after, from_unit(view(sample.id)[0]))
        assert not np.array_equal(after, from_unit(view("0000.ppm")[0]))
        resized = data.resize_bilinear(sample, 32, 32).pixels
        assert np.array_equal(read_ppm(out / "before.ppm"), from_unit(resized))

    def test_same_seed_same_bytes(self, tmp_path):
        img = self._input_image(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["augment", "--input", str(img), "--image-size", "32",
                         "--seed", "4", "--out", str(out)]) == 0
        assert (a / "after.ppm").read_bytes() == (b / "after.ppm").read_bytes()

    def test_nan_rotation_is_config_error(self, tmp_path, capsys):
        # a NaN angle turned every pixel NaN, written as black; the rotation
        # range is now fixed, so augment takes no --set
        img = self._input_image(tmp_path)
        out = tmp_path / "aug"
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--input", str(img), "--image-size", "32",
                  "--set", "aug.train.max_rotation_deg=nan", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --set" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_rotation_is_config_error(self, tmp_path, capsys):
        # an infinite angle, like a NaN one, turned every pixel NaN
        img = self._input_image(tmp_path)
        out = tmp_path / "aug"
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--input", str(img), "--image-size", "32",
                  "--set", "aug.train.max_rotation_deg=inf", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --set" in capsys.readouterr().err
        assert not out.exists()

    def test_image_size_above_the_cap_is_config_error_before_the_input_is_read(
            self, tmp_path, capsys, monkeypatch):
        # it read and resized the 48 px input to 40000 px, and ended in an
        # out-of-memory error (exit 7)
        img = self._input_image(tmp_path)
        out = tmp_path / "aug"
        monkeypatch.setattr(data, "read_sample", lambda *a, **k: pytest.fail("read"))
        tracemalloc.start()
        try:
            code = main(["augment", "--input", str(img), "--image-size", "40000",
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "a 40000 x 40000 RGB image would hold 4.800e+9 entries" in err
        assert "limit is" in err
        assert peak < 1 << 20
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["augment", "--input", str(tmp_path / "none.ppm"),
                     "--out", str(tmp_path / "aug")])
        assert code == 4


def _readme_commands():
    """Every ``hgtnet ...`` line of README.md's ``sh`` blocks, with its
    backslash continuations joined."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = fh.read().split("```sh\n")[1:]
    commands = []
    for block in blocks:
        body = block.split("```")[0].replace("\\\n", " ")
        commands += [ln.strip() for ln in body.splitlines()
                     if ln.strip().startswith("hgtnet ")]
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 7
    parser = build_parser()
    shown = set()
    for command in commands:
        try:
            shown.add(parser.parse_args(shlex.split(command)[1:]).command)
        except SystemExit:
            pytest.fail(f"README.md command does not parse: {command}")
    # and every subcommand has an example
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert shown == set(subcommands)
