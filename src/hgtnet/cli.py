"""Command-line entry point.

Commands: train, eval, metrics, gradcheck, synth, augment.  Every command
is deterministic given (flags, config file, seed), and ``augment`` writes
the epoch-0 view that training on a ``--data`` tree gives its image.
Artifacts are written atomically (temp file + rename), and failures exit
with a one-line diagnostic and a code identifying the failure class:

    0  success
    1  gradient check failed
    2  configuration error
    3  data error (malformed dataset tree or CSV contents)
    4  I/O error (unreadable/unwritable paths)
    5  checkpoint missing or malformed
    6  training diverged (a non-finite loss, or a gradient norm above
       ``training.MAX_GRAD_NORM``)
    7  out of memory (an allocation failed)
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import data
from . import tensor as T
from . import training as tr
from .checkpoint import atomic_write
from .config import RunConfig, load_run_config, render_run_config
from .errors import (CheckpointError, ConfigError, DataError, DivergenceError,
                     HgtnetError)
from .gradcheck import check_gradients, op_battery
from .metrics import (build_report, read_predictions, render_report,
                      write_predictions, write_roc)
from .kvtext import to_kv
from .model import TINY_PRESET, ModelConfig, check_cap, init_params, model_forward, tiny_config
from .ppm import from_unit, write_ppm
from .rng import RngStream
from .tensor import Tensor

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_CHECKPOINT = 5
EXIT_DIVERGED = 6
EXIT_MEMORY = 7


def _write_text(path, text: str) -> None:
    atomic_write(path, lambda p: Path(p).write_text(text, encoding="utf-8", newline=""))


def _write_report_tables(out_dir, report) -> None:
    """``confusion.csv`` and one ``roc_class<k>.csv`` per class with a curve."""
    lines = ["actual\\predicted," + ",".join(report.class_names)]
    for name, row in zip(report.class_names, report.confusion):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    _write_text(os.path.join(out_dir, "confusion.csv"), "\n".join(lines) + "\n")
    for k, curve in enumerate(report.roc):
        if curve is not None:
            atomic_write(os.path.join(out_dir, f"roc_class{k}.csv"),
                         lambda p, c=curve: write_roc(p, c))


# ---------------------------------------------------------------------------
# config assembly from flags
# ---------------------------------------------------------------------------

_TINY_PRESET = {key: value for key, value in to_kv(tiny_config(), "model.").items()
                if key.removeprefix("model.") in TINY_PRESET}


def _overrides_from_args(args) -> dict[str, str]:
    out: dict[str, str] = {}
    if args.tiny:
        out.update(_TINY_PRESET)
    for flag, key, _, _ in _TRAIN_SHORTCUTS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            out[key] = str(value)
    for pair in args.set or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _resolve(args) -> RunConfig:
    return load_run_config(args.config, _overrides_from_args(args))


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def _dataset(per_class: int | None, data_root, image_size: int, seed: int):
    """(samples, class names): the synthetic set of ``per_class`` images per
    class at ``image_size`` drawn from ``seed``, or with ``per_class`` None
    the PPM tree under ``data_root``; naming both is a config error."""
    if per_class is not None and data_root is not None:
        raise ConfigError(f"--synth and --data {data_root} name two datasets; pass one")
    if per_class is not None:
        samples = data.synth_dataset(num_per_class=per_class,
                                     size=image_size, rng=RngStream(seed=seed))
        return samples, list(data.SYNTH_CLASS_NAMES)
    if data_root is None:
        raise ConfigError("no dataset: pass --data DIR or --synth")
    return data.load_dataset(data_root)


def _split(samples, seed: int):
    """The seeded 90/10 stratified (train, test) split of a run."""
    return data.stratified_split(samples, 0.1, RngStream(seed=seed).derive("split"))


def _emit_eval_artifacts(out_dir, records, class_names) -> None:
    report = build_report(records, len(class_names), class_names=class_names)
    atomic_write(os.path.join(out_dir, "predictions.csv"),
                 lambda p: write_predictions(p, records))
    _write_text(os.path.join(out_dir, "report.txt"), render_report(report))
    _write_report_tables(out_dir, report)


def cmd_train(args) -> int:
    if args.per_class is not None and not args.synth:
        raise ConfigError("--per-class sizes the synthetic dataset; pass it with --synth")
    cfg = _resolve(args)
    if args.print_config:
        sys.stdout.write(render_run_config(cfg))
        return EXIT_OK
    per_class = (args.per_class or 40) if args.synth else None
    samples, names = _dataset(per_class, cfg.data_root, cfg.model.image_size, cfg.train.seed)
    model_cfg = dataclasses.replace(cfg.model, num_classes=len(names))
    train_samples, test_samples = _split(samples, cfg.train.seed)
    stats = data.compute_stats(train_samples)
    state = tr.init_state(model_cfg, cfg.train, stats, names)
    state.synth_per_class = per_class
    history = tr.fit(state, train_samples, test_samples, out_dir=cfg.out_dir,
                     log=lambda msg: print(msg))
    atomic_write(os.path.join(cfg.out_dir, "history.csv"),
                 lambda p: tr.write_history(p, history))
    # final artifacts come from the best checkpoint so that a later
    # `eval --checkpoint best.ckpt` reproduces them bitwise
    best = tr.load_state(os.path.join(cfg.out_dir, "best.ckpt"))
    _, _, records = tr.evaluate(best.params, best.model_cfg, test_samples, best.stats)
    _emit_eval_artifacts(cfg.out_dir, records, names)
    print(f"done: best epoch {best.best_epoch} "
          f"(test loss {best.best_test_loss:.6f}); artifacts in {cfg.out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    """Evaluate a checkpoint: the architecture, the seed, the statistics and
    the synthetic set's size come from the checkpoint; ``--synth`` evaluates
    the test split that ``train --synth`` held out, and a ``--data`` tree is
    evaluated whole."""
    state = tr.load_state(args.checkpoint)
    seed = state.train_cfg.seed
    per_class = state.synth_per_class if args.synth else None
    if args.synth and per_class is None:
        raise CheckpointError(f"{args.checkpoint}: the checkpoint records no synthetic "
                              f"per-class count, so its --synth test split cannot be rebuilt")
    samples, names = _dataset(per_class, args.data, state.model_cfg.image_size, seed)
    if names != state.class_names:
        raise DataError(f"dataset classes {names} do not match the checkpoint's "
                        f"classes {state.class_names}")
    if args.synth:
        _, samples = _split(samples, seed)
    os.makedirs(args.out, exist_ok=True)
    _, accuracy, records = tr.evaluate(state.params, state.model_cfg, samples, state.stats)
    _emit_eval_artifacts(args.out, records, state.class_names)
    print(f"evaluated {len(records)} samples, accuracy {accuracy:.4f}; "
          f"artifacts in {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def cmd_metrics(args) -> int:
    records = read_predictions(args.predictions)
    k = len(records[0].scores)
    names = args.names.split(",") if args.names else None
    if names is not None and len(names) != k:
        raise ConfigError(f"--names lists {len(names)} classes, records have {k}")
    if names is not None and "" in names:
        raise ConfigError(f"--names entry {names.index('') + 1} of {k} is empty")
    report = build_report(records, k, class_names=names)
    sys.stdout.write(render_report(report))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_report_tables(args.out, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _model_check(seed: int):
    """(name, build, params) of the tiny model's combined loss on two images."""
    rng = RngStream(seed=seed)
    model_cfg = tiny_config()
    params = init_params(model_cfg, rng.derive("model"))
    batch = Tensor(rng.derive("model-x").normal(2 * 3 * 32 * 32).reshape(2, 3, 32, 32) * 0.3)
    labels = np.array([1, 3])
    rot_labels = np.array([0, 2])

    def model_loss(ps):
        cls, rot = model_forward(batch, model_cfg, params)
        return tr.combined_loss(cls, labels, rot, rot_labels)

    return "model", model_loss, list(params.values())


# every op name that the gradcheck battery and the model check record: every
# op a training step records, plus the battery's ``sum``, and ``gelu`` and
# ``max_pool2d``, which only the battery records: the model's MLP runs GELU
# inside ``gelu_linear``, and its pooled convs run max_pool2d's kernel under
# ``conv2d``
CORRUPTIBLE_OPS = ("add", "attention", "concat", "conv2d", "cross_entropy", "dropout",
                   "gelu", "gelu_linear", "layer_norm", "leaky_relu", "linear", "matmul",
                   "max_pool2d", "mean", "mul", "reshape", "softmax", "sum", "take_rows",
                   "transpose")


def _corrupt_op(name: str) -> None:
    """Test hook: scale the backward of every op recorded under ``name`` by
    1.01 so gradcheck must fail.  Every op builds its output through
    ``tensor._make``, so wrapping that one function reaches them all."""
    make = T._make

    def corrupt_make(data, op_name, parents, backward):
        if op_name == name:
            inner = backward

            def backward(g):
                return tuple(None if gi is None else 1.01 * gi for gi in inner(g))
        return make(data, op_name, parents, backward)

    T._make = corrupt_make


def cmd_gradcheck(args) -> int:
    if args.corrupt:
        _corrupt_op(args.corrupt)
    start = time.time()
    failures = []
    checks = [(*check, 1e-4, None) for check in op_battery(args.seed)]
    checks.append((*_model_check(args.seed), 1e-3, 3))
    for name, build, params, tol, sample in checks:
        err = check_gradients(build, params, sample_per_param=sample,
                              rng=RngStream(seed=args.seed).derive("probe", name))
        status = "pass" if err < tol else "FAIL"
        print(f"{name}: worst relative error {err:.3e} (tolerance {tol:.0e}) {status}")
        if err >= tol:
            failures.append(name)
    print(f"gradcheck finished in {time.time() - start:.1f}s")
    if failures:
        print(f"gradient check FAILED for: {', '.join(failures)}")
        return EXIT_GRADCHECK
    print("all gradient checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth / augment
# ---------------------------------------------------------------------------

def _check_image_cap(size: int) -> None:
    check_cap(3 * size ** 2, f"a {size} x {size} RGB image would hold {{}} entries")


def cmd_synth(args) -> int:
    _check_image_cap(args.image_size)
    samples = data.synth_dataset(num_per_class=args.per_class, size=args.image_size,
                                 rng=RngStream(seed=args.seed))
    for s in samples:
        directory = os.path.join(args.out, data.SYNTH_CLASS_NAMES[s.label])
        os.makedirs(directory, exist_ok=True)
        atomic_write(os.path.join(directory, s.id.partition("_")[2] + ".ppm"),
                     lambda p, px=s.pixels: write_ppm(p, from_unit(px)))
    print(f"wrote {len(samples)} images under {args.out}")
    return EXIT_OK


def cmd_augment(args) -> int:
    """Write ``--input`` resized (``before.ppm``) and augmented as epoch 0
    of a ``--data`` run with the same seed and image size augments it
    (``after.ppm``): the image is keyed by its ``class_dir/file`` id."""
    size = args.image_size
    _check_image_cap(size)
    sample = data.read_sample(args.input, label=0)
    resized = data.resize_bilinear(sample, size, size).pixels
    streams = tr.augment_streams(RngStream(seed=args.seed), 0, [sample])
    augmented = data.apply_policy([sample], data.train_policy(size), streams)[0]
    out = args.out
    os.makedirs(out, exist_ok=True)
    atomic_write(os.path.join(out, "before.ppm"),
                 lambda p: write_ppm(p, from_unit(resized)))
    atomic_write(os.path.join(out, "after.ppm"),
                 lambda p: write_ppm(p, from_unit(augmented)))
    print(f"wrote before.ppm and after.ppm ({size}x{size}) to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _out_dir(text: str) -> str:
    """argparse type for ``--out``: a non-empty path."""
    if not text:
        raise argparse.ArgumentTypeError("expected an output directory, got ''")
    return text


def _positive_int(text: str) -> int:
    """argparse type for counts and sizes: an integer >= 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


# train's shortcut flags: (flag, the config key it sets, argparse type, help)
_TRAIN_SHORTCUTS = (
    ("--seed", "train.seed", int, "master RNG seed"),
    ("--out", "run.out_dir", None, "output directory"),
    ("--data", "run.data_root", None, "dataset root (class dirs of .ppm)"),
    ("--image-size", "model.image_size", _positive_int, None),
    ("--encoder-layers", "model.num_encoder_layers", int, None),
    ("--epochs", "train.max_epochs", int, None),
    ("--batch-size", "train.batch_size", int, None),
    ("--lr", "train.learning_rate", float, None),
    ("--patience", "train.patience", int, None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgtnet",
        description="hybrid CNN/transformer/graph-attention image classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write run artifacts")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key directly")
    p.add_argument("--print-config", action="store_true",
                   help="print the merged config and exit")
    p.add_argument("--synth", action="store_true",
                   help="train on the built-in synthetic texture dataset")
    p.add_argument("--per-class", type=_positive_int, default=None,
                   help="synthetic samples per class (with --synth)")
    p.add_argument("--tiny", action="store_true",
                   help="desk-scale preset: 1 encoder layer, 8-dim embeddings")
    for flag, _, type_, help_ in _TRAIN_SHORTCUTS:
        p.add_argument(flag, type=type_, default=None, help=help_)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint and write reports")
    p.add_argument("--checkpoint", required=True, help="checkpoint to evaluate")
    p.add_argument("--data", default=None, help="dataset root (class dirs of .ppm)")
    p.add_argument("--out", type=_out_dir, default=RunConfig.out_dir, help="output directory")
    p.add_argument("--synth", action="store_true",
                   help="evaluate on the test split of the checkpoint's train --synth run")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("metrics", help="render a report from a prediction CSV")
    p.add_argument("--predictions", required=True)
    p.add_argument("--names", default=None, help="comma-separated class names")
    p.add_argument("--out", type=_out_dir, default=None,
                   help="also dump confusion/ROC CSVs here")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", choices=CORRUPTIBLE_OPS, default=None, metavar="OP",
                   help="deliberately break the backward of one op that a training "
                        "step records (self-test hook)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="write the synthetic dataset as PPM files")
    p.add_argument("--out", type=_out_dir, default="synth_data")
    p.add_argument("--per-class", type=_positive_int, default=10)
    p.add_argument("--image-size", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("augment", help="apply the train-time policy to one image")
    p.add_argument("--input", required=True, help="input PPM image")
    p.add_argument("--image-size", type=_positive_int, default=ModelConfig().image_size)
    p.add_argument("--seed", type=int, default=tr.TrainConfig().seed, help="master RNG seed")
    p.add_argument("--out", type=_out_dir, default=RunConfig.out_dir, help="output directory")
    p.set_defaults(func=cmd_augment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except HgtnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
