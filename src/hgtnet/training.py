"""Losses, the Adam optimizer, and the training/evaluation loops.

The trainer is deterministic by construction: every random decision comes
from streams derived as (seed, purpose, epoch[, sample id]), so a run can
be stopped, checkpointed, and resumed with bitwise-identical results.  A
step back-propagates the augmented views, then their rotated copies.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ckpt
from . import tensor as T
from .data import (DatasetStats, ImageSample, apply_policy, normalize, resize_bilinear,
                   rotation_pretext_sample, train_policy)
from .errors import (CheckpointError, ConfigError, ContractError, DataError,
                     DivergenceError, ShapeError)
from .kvtext import from_kv, get_float, get_floats, get_int, parse_kv, render_kv, to_kv
from .metrics import PredictionRecord, predicted_label
from .model import ModelConfig, init_params, model_forward, param_shapes
from .rng import RngStream
from .tensor import Tensor

# the rotation-prediction term's weight in the training loss, and Adam's
# decay rates and guard at their published defaults (arXiv:1412.6980)
ROTATION_LOSS_WEIGHT = 0.1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# a step whose summed gradient has a larger (or a non-finite) global L2 norm
# stops the run as diverged.  The largest norm measured in a healthy run is
# 217 (--tiny at learning rate 0.3; the paper default peaks near 8); the
# first step after a --lr 1e6 update reads 1.8e66
MAX_GRAD_NORM = 1e8

# an epoch whose train or test loss is larger (or NaN) stops the run as
# diverged.  Six epochs of --tiny --per-class 8 at seed 7 peak at a train loss
# of 65 at --lr 0.3, 2.6e4 at 1 and 5.3e7 at 3, and a test loss of 173; one
# epoch at --lr 1e6 ends at a test loss of 2.3e12
MAX_EPOCH_LOSS = 1e6


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 20
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        self.seed = int(self.seed) & 0xFFFFFFFFFFFFFFFF


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _softmax_nll(z: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax of B x K logits and each row's negative log-likelihood of
    its label: ``T.softmax_in_place`` on a copy of z gives the probabilities,
    and its row maxima and sums the log-sum-exp."""
    probs = z.copy()
    top, total = T.softmax_in_place(probs)
    return probs, top[:, 0] + np.log(total[:, 0]) - z[np.arange(len(z)), labels]


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over the batch via log-sum-exp."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects B x K logits, got {logits.shape}")
    b, k = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise ContractError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ContractError(f"labels must lie in [0, {k}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    probs, losses = _softmax_nll(logits.data, labels)

    def backward(g):
        gz = probs.copy()
        gz[np.arange(b), labels] -= 1.0
        return (gz * (g / b),)

    return T._make(losses.mean(), "cross_entropy", (logits,), backward)


def combined_loss(class_logits: Tensor, labels, rot_logits: Tensor, rot_labels) -> Tensor:
    """Classification CE plus ``ROTATION_LOSS_WEIGHT`` times the rotation CE."""
    return (cross_entropy(class_logits, labels)
            + cross_entropy(rot_logits, rot_labels) * ROTATION_LOSS_WEIGHT)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: dict[str, Tensor]) -> AdamState:
    return AdamState(m={n: np.zeros_like(p.data) for n, p in params.items()},
                     v={n: np.zeros_like(p.data) for n, p in params.items()})


def adam_step(params: dict[str, Tensor], moments: AdamState, cfg: TrainConfig) -> None:
    """Count one more step in ``moments.t`` and apply the standard
    bias-corrected update at that step; a missing gradient counts as zero."""
    moments.t += 1
    t = moments.t
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} does not match parameter "
                                f"{name} of shape {p.data.shape}")
        m = moments.m[name]
        v = moments.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# epoch loops
# ---------------------------------------------------------------------------

def augment_streams(root_rng: RngStream, epoch: int,
                    samples: list[ImageSample]) -> list[RngStream]:
    """Each sample's augmentation stream at ``epoch``, keyed by its id."""
    return [root_rng.derive("aug", epoch, s.id) for s in samples]


def prepare_batch(samples: list[ImageSample], policy, stats: DatasetStats,
                  root_rng: RngStream, epoch: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Augment each sample of a batch and rotate a copy of each view.
    Returns the B normalized views, their B normalized rotated copies, the
    samples' labels and the copies' rotation labels.  The views and the
    copies are two arrays, so a task can drop the views' once their walk
    ends."""
    aug = apply_policy(samples, policy, augment_streams(root_rng, epoch, samples))
    labels = np.asarray([s.label for s in samples], dtype=np.int64)
    rot, rot_labels = rotation_pretext_sample(
        aug, [root_rng.derive("rot", epoch, s.id) for s in samples])
    return normalize(aug, stats), normalize(rot, stats), labels, rot_labels


# A training step runs one task per sample when such a task is big enough
# to thread, else the whole batch as one inline task; the task gradients
# are summed in task order, so the result is the same whether the tasks
# run inline or on worker threads.  Tasks are threaded only when each one's
# first convolution writes at least this many values (images x
# cnn_channels[0] x image_size^2): below it the ops are too short for
# numpy's release of the interpreter lock to pay for the hand-offs.  One
# --tiny 32 px sample and its copy write 8k; one default-model sample and
# its copy write 131k at 64 px and 1.6M at 224 px, and one 224 px eval
# sample 803k, and all three run threaded.
THREAD_MIN_CONV_OUT = 1 << 17


def _threaded(model_cfg: ModelConfig, images: int) -> bool:
    """Whether a task that forwards ``images`` images is big enough for a
    worker thread; this alone, never the core count, decides how a training
    batch is split."""
    return images * model_cfg.cnn_channels[0] * model_cfg.image_size ** 2 >= THREAD_MIN_CONV_OUT


@contextmanager
def _task_map(model_cfg: ModelConfig, images: int, tasks: int):
    """The ``map`` for ``tasks`` forwards of ``images`` images each: a pool's,
    with one worker per usable core, when ``_threaded`` says so, else the
    builtin.  BLAS runs on one thread meanwhile, so no result depends on
    the host's BLAS thread count; the count is restored on exit."""
    T.keep_freed_memory()
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cores, tasks) if _threaded(model_cfg, images) else 1
    blas_threads = T.pin_blas_threads(1)
    try:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                yield pool.map
        else:
            yield map
    finally:
        if blas_threads is not None:
            T.pin_blas_threads(blas_threads)


def train_epoch(params: dict[str, Tensor], model_cfg: ModelConfig,
                train_cfg: TrainConfig, samples: list[ImageSample],
                stats: DatasetStats, policy, adam: AdamState,
                epoch: int) -> tuple[float, float]:
    """One pass over a seeded shuffle of the data; returns the per-sample
    mean combined loss and the classification accuracy.

    A model whose one sample and rotated copy are big enough to thread
    trains one task per sample, on one worker per usable core; a smaller
    one trains each batch as one inline task.  The split
    depends on the model config alone, and BLAS runs on one thread
    meanwhile (``_task_map``), so the parameters depend on neither the
    host's core count nor its BLAS thread count."""
    if not samples:
        raise DataError("cannot train on an empty dataset")
    root = RngStream(seed=train_cfg.seed)
    order = root.derive("shuffle", epoch).shuffle(list(range(len(samples))))
    total_loss = 0.0
    correct = 0
    with _task_map(model_cfg, 2, min(train_cfg.batch_size, len(samples))) as map_tasks:
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [samples[i] for i in order[start:start + train_cfg.batch_size]]
            loss, hits = _train_step(params, model_cfg, train_cfg, batch, stats,
                                     policy, adam, root, epoch, map_tasks)
            total_loss += loss * len(batch)
            correct += hits
    return total_loss / len(samples), correct / len(samples)


def _train_step(params, model_cfg, train_cfg, batch, stats, policy, adam, root,
                epoch, map_tasks) -> tuple[float, int]:
    """Forward, backward and Adam on one batch; returns the loss and the
    number of correct predictions.  ``map_tasks`` is ``map`` or a thread
    pool's ``map`` over the batch's tasks (see ``THREAD_MIN_CONV_OUT``);
    each task's graphs are freed by its ``T.backward`` walks before the
    task returns its gradients, which are added into ``p.grad`` in task
    order as the task is yielded, then dropped.  Raises
    ``DivergenceError``, before the Adam step, when the summed gradient's
    norm is above ``MAX_GRAD_NORM`` or not finite."""
    b = len(batch)
    tasks = [[s] for s in batch] if _threaded(model_cfg, 2) else [batch]
    run = lambda task: _shard_step(params, model_cfg, task, b, stats, policy, root, epoch)
    for p in params.values():
        p.grad = None
    loss, hits = 0.0, 0
    for task_loss, task_hits, grads in map_tasks(run, tasks):
        loss += task_loss
        hits += task_hits
        for name, p in params.items():
            g = grads[name]
            if g is not None:
                p.grad = g if p.grad is None else p.grad + g
        del grads  # so the next task does not run beside this one's gradients
    norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                         for p in params.values() if p.grad is not None))
    if not norm <= MAX_GRAD_NORM:
        raise DivergenceError(f"epoch {epoch + 1}: gradient norm {norm:.3g} is above "
                              f"{MAX_GRAD_NORM:.0e}; no checkpoint was written for this epoch")
    adam_step(params, adam, train_cfg)
    return loss, hits


def _shard_step(params, model_cfg, shard, b, stats, policy, root, epoch):
    """Forwards and backwards of one task (one sample or the batch) of a
    batch of ``b`` samples on its own views of the parameters; returns the
    task's share of the batch loss, its number of correct predictions and
    its parameter gradients.

    The views' class CE and the copies' rotation CE read disjoint rows, so
    each half is forwarded and back-propagated alone, the copies' walk
    adding into the views' gradients.  Each image draws its dropout masks
    from a stream keyed by its sample, so the masks do not depend on the
    batch or the task it lands in."""
    x, x_rot, labels, rot_labels = prepare_batch(shard, policy, stats, root, epoch)
    n = len(shard)
    views = {name: Tensor(p.data, requires_grad=True) for name, p in params.items()}
    cls, _ = model_forward(Tensor(x), model_cfg, views,
                           rngs=[root.derive("drop", epoch, s.id) for s in shard], head="class")
    class_loss = cross_entropy(cls, labels) * (n / b)
    T.backward(class_loss)
    del x  # the walk released the records that kept it
    hits = int((np.argmax(cls.data, axis=1) == labels).sum())
    _, rot = model_forward(Tensor(x_rot), model_cfg, views,
                           rngs=[root.derive("drop", epoch, s.id, "rot") for s in shard],
                           head="rotation")
    rot_loss = cross_entropy(rot, rot_labels) * ROTATION_LOSS_WEIGHT * (n / b)
    T.backward(rot_loss)
    return class_loss.item() + rot_loss.item(), hits, {name: v.grad for name, v in views.items()}


def _eval_sample(frozen, model_cfg, stats, sample) -> tuple[float, PredictionRecord]:
    """One sample's loss and record from a forward of that sample alone."""
    size = model_cfg.image_size
    x = Tensor(normalize(resize_bilinear(sample, size, size).pixels[None], stats))
    cls, _ = model_forward(x, model_cfg, frozen, head="class")
    probs, losses = _softmax_nll(cls.data, np.array([sample.label]))
    return float(losses[0]), PredictionRecord(sample_id=sample.id, true_label=sample.label,
                                              scores=tuple(float(v) for v in probs[0]))


def evaluate(params: dict[str, Tensor], model_cfg: ModelConfig,
             samples: list[ImageSample], stats: DatasetStats, *,
             batch_size=None, num_threads=None) -> tuple[float, float, list[PredictionRecord]]:
    """Resize + normalize only (no augmentation, no dropout); returns the mean
    loss, the accuracy and one softmax record per sample, in sample order.

    Each sample is its own forward (on ``_task_map``'s workers): a GEMM's
    last bits depend on how many rows it gets, so only this makes a score a
    function of (sample, parameters, statistics) alone, on any host and in
    any company.  ``batch_size`` and ``num_threads`` change nothing; the
    benchmark still passes them (ROADMAP item 1 removes them)."""
    if not samples:
        raise DataError("cannot evaluate an empty dataset")
    # untracked views of the parameters: the forwards record no graph
    frozen = {name: Tensor(p.data) for name, p in params.items()}
    with _task_map(model_cfg, 1, len(samples)) as map_samples:
        losses, records = zip(*map_samples(
            lambda s: _eval_sample(frozen, model_cfg, stats, s), samples))
    hits = sum(predicted_label(r.scores) == r.true_label for r in records)
    return sum(losses) / len(samples), hits / len(samples), list(records)


# ---------------------------------------------------------------------------
# trainer state and persistence
# ---------------------------------------------------------------------------

@dataclass
class TrainerState:
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    params: dict[str, Tensor]
    adam: AdamState
    stats: DatasetStats
    class_names: list[str]
    epoch: int = 0                      # completed epochs
    best_test_loss: float = math.inf
    best_epoch: int = 0                 # 1-based; 0 = none yet
    bad_epochs: int = 0
    synth_per_class: int | None = None  # the synthetic set's size; None = a --data tree


def init_state(model_cfg: ModelConfig, train_cfg: TrainConfig, stats: DatasetStats,
               class_names: list[str]) -> TrainerState:
    """A fresh state; raises ``DataError`` unless there are ``num_classes``
    non-empty names that a checkpoint's metadata text gives back unchanged."""
    if len(class_names) != model_cfg.num_classes:
        raise DataError(f"{len(class_names)} class names for {model_cfg.num_classes} classes")
    try:
        back = parse_kv(render_kv({"data.class_names": ",".join(class_names)}),
                        "class names")["data.class_names"].split(",")
    except ConfigError:
        back = None
    if back != list(class_names) or not all(class_names):
        raise DataError(f"class names {list(class_names)} would not survive a checkpoint (empty, "
                        f"a comma or line break, or whitespace at either end of the list)")
    params = init_params(model_cfg, RngStream(seed=train_cfg.seed))
    return TrainerState(model_cfg=model_cfg, train_cfg=train_cfg, params=params,
                        adam=init_adam(params), stats=stats,
                        class_names=list(class_names))


def _check_arrays(path, name: str, arrays: tuple[np.ndarray, ...]) -> None:
    """Reject a parameter and its two optimizer moments, ``(p, m, v)``,
    when one holds a non-finite value or the second moment a negative one:
    in a checkpoint they would only surface as NaN scores or a diverged
    epoch."""
    if not all(np.isfinite(a).all() for a in arrays) or (arrays[2] < 0).any():
        raise CheckpointError(f"{path}: {name!r} or its optimizer moments hold a "
                              f"non-finite value or a negative second moment")


def save_state(state: TrainerState, path) -> None:
    """Write the state as a checkpoint that ``load_state`` accepts; a state
    whose arrays it would reject raises ``CheckpointError`` before any file
    is written."""
    for n, p in state.params.items():
        _check_arrays(path, n, (p.data, state.adam.m[n], state.adam.v[n]))
    metadata = {**to_kv(state.model_cfg, "model."), **to_kv(state.train_cfg, "train.")}
    metadata["trainer.epoch"] = str(state.epoch)
    metadata["trainer.adam_t"] = str(state.adam.t)
    metadata["trainer.best_test_loss"] = repr(state.best_test_loss)
    metadata["trainer.best_epoch"] = str(state.best_epoch)
    metadata["trainer.bad_epochs"] = str(state.bad_epochs)
    metadata["stats.mean"] = ",".join(repr(float(v)) for v in state.stats.mean)
    metadata["stats.std"] = ",".join(repr(float(v)) for v in state.stats.std)
    metadata["data.class_names"] = ",".join(state.class_names)
    if state.synth_per_class is not None:
        metadata["data.synth_per_class"] = str(state.synth_per_class)
    arrays = {n: p.data for n, p in state.params.items()}
    arrays.update({f"m.{n}": state.adam.m[n] for n in state.params})
    arrays.update({f"v.{n}": state.adam.v[n] for n in state.params})
    ckpt.save_checkpoint(path, metadata, arrays)


def load_state(path) -> TrainerState:
    kv, arrays = ckpt.load_checkpoint(path)
    try:
        model_cfg = from_kv(ModelConfig, kv, "model.")
        train_cfg = from_kv(TrainConfig, kv, "train.")
        adam_t = get_int(kv, "trainer.adam_t")
        epoch = get_int(kv, "trainer.epoch")
        best_epoch = get_int(kv, "trainer.best_epoch")
        bad_epochs = get_int(kv, "trainer.bad_epochs")
        best_test_loss = get_float(kv, "trainer.best_test_loss")
        stats = DatasetStats(mean=np.array(get_floats(kv, "stats.mean")),
                             std=np.array(get_floats(kv, "stats.std")))
        synth_per_class = (get_int(kv, "data.synth_per_class")
                           if "data.synth_per_class" in kv else None)
    except KeyError as exc:
        raise CheckpointError(f"{path}: metadata lacks {exc.args[0]!r}") from None
    except (ConfigError, DataError) as exc:
        raise CheckpointError(f"{path}: bad metadata ({exc})") from None
    class_names = kv.get("data.class_names", "").split(",")
    if len(class_names) != model_cfg.num_classes or not all(class_names):
        raise CheckpointError(f"{path}: bad metadata (data.class_names must list "
                              f"{model_cfg.num_classes} non-empty names, got {class_names})")
    # a counter that cannot resume fails here, not in the first Adam step or
    # as a best epoch that no test loss can beat; inf means no best yet, and
    # best epoch 0 means the same
    if min(adam_t, epoch, best_epoch, bad_epochs) < 0 or \
            max(best_epoch, bad_epochs) > epoch or not best_test_loss >= 0.0 or \
            (best_epoch == 0) != (best_test_loss == math.inf):
        raise CheckpointError(
            f"{path}: bad metadata (trainer counters need adam_t, epoch, best_epoch and "
            f"bad_epochs >= 0, best_epoch and bad_epochs <= epoch, best_test_loss >= 0, "
            f"and best_epoch 0 exactly when best_test_loss is inf, got {adam_t}, {epoch}, "
            f"{best_epoch}, {bad_epochs} and {best_test_loss})")
    if synth_per_class is not None and synth_per_class < 1:
        raise CheckpointError(f"{path}: bad metadata (data.synth_per_class must be >= 1, "
                              f"got {synth_per_class})")
    # checked here so that a file that does not fit its config fails on
    # load, not with a KeyError in the first forward pass
    expected = param_shapes(model_cfg)
    layout = {p + n: shape for p in ("", "m.", "v.") for n, shape in expected.items()}
    shapes = {n: a.shape for n, a in arrays.items()}
    if shapes != layout:
        wrong = sorted(n for n in layout.keys() | shapes.keys() if shapes.get(n) != layout.get(n))
        raise CheckpointError(f"{path}: the parameters and optimizer moments do not match "
                              f"the model config (missing, unexpected or misshapen: {wrong})")
    params, m, v = {}, {}, {}
    for name in expected:
        # the arrays are load_checkpoint's own copies, kept as they are
        p, m[name], v[name] = arrays[name], arrays[f"m.{name}"], arrays[f"v.{name}"]
        _check_arrays(path, name, (p, m[name], v[name]))
        params[name] = Tensor(p, requires_grad=True)
    return TrainerState(
        model_cfg=model_cfg, train_cfg=train_cfg, params=params,
        adam=AdamState(m=m, v=v, t=adam_t), stats=stats,
        class_names=class_names,
        epoch=epoch, best_test_loss=best_test_loss, best_epoch=best_epoch,
        bad_epochs=bad_epochs, synth_per_class=synth_per_class)


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------

def fit(state: TrainerState, train_samples: list[ImageSample],
        test_samples: list[ImageSample], out_dir=None,
        max_epochs: int | None = None, log=None) -> list[EpochRecord]:
    """Run epochs of the paper's augmentation stack (``train_policy``) until
    the budget or the patience counter is exhausted.

    Saves ``best.ckpt`` on every strict test-loss improvement and
    ``last.ckpt`` after every epoch when ``out_dir`` is given, creating
    ``out_dir`` with the first of them.  Raises
    ``DivergenceError`` for an epoch whose train or test loss is above
    ``MAX_EPOCH_LOSS`` or NaN, or one of whose steps fails ``MAX_GRAD_NORM``,
    before that epoch is counted or checkpointed.  Returns the records for
    the epochs executed by this call (resume runs return only their
    continuation).
    Raises ``ContractError`` before the first epoch when ``state.adam.t``
    is not the number of Adam steps that ``state.epoch`` epochs over
    ``train_samples`` take: Adam's bias correction would then not be the
    one a straight run applies.
    """
    steps = -(-len(train_samples) // state.train_cfg.batch_size)
    if state.adam.t != state.epoch * steps:
        raise ContractError(
            f"the Adam step count {state.adam.t} does not match {state.epoch} epochs of "
            f"{steps} steps over {len(train_samples)} samples at batch "
            f"{state.train_cfg.batch_size}; resume with the data the state was trained on")
    policy = train_policy(state.model_cfg.image_size)
    target = state.train_cfg.max_epochs if max_epochs is None else max_epochs
    history: list[EpochRecord] = []
    while state.epoch < target:
        epoch = state.epoch
        train_loss, train_acc = train_epoch(
            state.params, state.model_cfg, state.train_cfg, train_samples,
            state.stats, policy, state.adam, epoch)
        test_loss, test_acc, _ = evaluate(state.params, state.model_cfg,
                                          test_samples, state.stats)
        if not (train_loss <= MAX_EPOCH_LOSS and test_loss <= MAX_EPOCH_LOSS):
            raise DivergenceError(
                f"epoch {epoch + 1}: non-finite loss or a loss above {MAX_EPOCH_LOSS:.0e} "
                f"(train {train_loss:.6g}, test {test_loss:.6g}); no checkpoint was "
                f"written for this epoch")
        state.epoch += 1
        record = EpochRecord(epoch=state.epoch, train_loss=train_loss,
                             train_acc=train_acc, test_loss=test_loss,
                             test_acc=test_acc)
        history.append(record)
        if out_dir is not None:
            # made here, so a run that stops before its first checkpoint
            # leaves no directory behind
            os.makedirs(out_dir, exist_ok=True)
        if test_loss < state.best_test_loss:
            state.best_test_loss = test_loss
            state.best_epoch = state.epoch
            state.bad_epochs = 0
            if out_dir is not None:
                save_state(state, os.path.join(out_dir, "best.ckpt"))
        else:
            state.bad_epochs += 1
        if out_dir is not None:
            save_state(state, os.path.join(out_dir, "last.ckpt"))
        if log is not None:
            log(f"epoch {record.epoch}: train loss {record.train_loss:.4f} "
                f"acc {record.train_acc:.3f} | test loss {record.test_loss:.4f} "
                f"acc {record.test_acc:.3f}")
        if state.bad_epochs >= state.train_cfg.patience:
            if log is not None:
                log(f"early stop: no improvement for {state.bad_epochs} epochs "
                    f"(best epoch {state.best_epoch})")
            break
    return history


# ---------------------------------------------------------------------------
# history CSV
# ---------------------------------------------------------------------------

HISTORY_HEADER = "epoch,train_loss,train_acc,test_loss,test_acc"


def write_history(path, history: list[EpochRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for r in history:
            fh.write(f"{r.epoch},{r.train_loss!r},{r.train_acc!r},"
                     f"{r.test_loss!r},{r.test_acc!r}\n")
