"""The benchmark workloads.

Each workload makes its inputs from the seed, sets the program up (ending
with one untimed warm-up operation) and runs its timed operations only
through hgtnet's public entry points, as shipped: ``training.train_epoch``,
``training.fit``, and ``training.evaluate`` followed by
``metrics.build_report`` and ``metrics.write_predictions``.  Functions are
looked up on their modules at call time, so a traced run sees them wrapped.
"""

from __future__ import annotations

import copy
import math
import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from hgtnet import HgtnetError, data, metrics, training
from hgtnet.model import ModelConfig
from hgtnet.rng import RngStream

CLASS_NAMES = [f"class{k}" for k in range(5)]

# Acceptance criterion 5: an untrained model's combined loss sits at the
# uninformed baseline ln 5 + 0.1 ln 4, within 0.2.
STEP0_LOSS = math.log(5) + 0.1 * math.log(4)
STEP0_TOLERANCE = 0.2
PROB_SUM_TOLERANCE = 1e-9
AUC_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """One operation: the work it covered and what it produced."""
    units: int                  # train steps, fit epochs or eval samples
    samples: int                # labelled samples consumed
    seconds: float              # wall time of the timed calls only
    failed: int = 0             # units that failed
    values: tuple = ()          # outputs the traced run must reproduce bitwise
    errors: list[str] = field(default_factory=list)


def _shuffled_pool(seed: int, per_class: int, size: int) -> list[data.ImageSample]:
    rng = RngStream(seed=seed)
    samples = data.synth_dataset(per_class, size, rng.derive("bench", "synth"))
    return rng.derive("bench", "order").shuffle(samples)


def _window(pool: list, i: int, n: int) -> list:
    return [pool[(i * n + j) % len(pool)] for j in range(n)]


def _step0_outcome(loss: float, batch: int) -> Outcome:
    ok = math.isfinite(loss) and abs(loss - STEP0_LOSS) <= STEP0_TOLERANCE
    errors = [] if ok else [f"step-0 loss {loss!r} outside {STEP0_LOSS:.4f} +- {STEP0_TOLERANCE}"]
    return Outcome(units=1, samples=batch, seconds=0.0, failed=0 if ok else 1,
                   values=(loss,), errors=errors)


def _params_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[n].data, b[n].data) for n in a)


class PaperTrain:
    """``train_epoch`` calls at the paper-default config, two steps each, so
    the previous step's graph is alive while the next one is built."""

    name = "paper-train"
    unit = "step"
    headline = ("train_samples_per_s", "1/s")
    setup_layers: tuple[str, ...] = ()

    def __init__(self, model_cfg: ModelConfig | None = None, batch_size: int = 4,
                 samples_per_op: int = 8, pool_per_class: int = 4):
        self.model_cfg = model_cfg or ModelConfig()
        self.batch_size = batch_size
        self.samples_per_op = samples_per_op
        self.pool_per_class = pool_per_class

    def config(self) -> dict:
        return {"model": vars(self.model_cfg), "batch_size": self.batch_size,
                "samples_per_op": self.samples_per_op,
                "pool": self.pool_per_class * len(CLASS_NAMES),
                "policy": f"train_policy({self.model_cfg.image_size})"}

    def setup(self, seed: int, workdir: str) -> SimpleNamespace:
        cfg = self.model_cfg
        pool = _shuffled_pool(seed, self.pool_per_class, cfg.image_size)
        stats = data.compute_stats(pool)
        state = training.init_state(cfg, training.TrainConfig(batch_size=self.batch_size,
                                                              seed=seed),
                                    stats, CLASS_NAMES)
        policy = data.train_policy(cfg.image_size)
        # warm-up: the first step, whose loss is also the calibration probe
        loss, _ = training.train_epoch(state.params, cfg, state.train_cfg,
                                       pool[:self.batch_size], stats, policy, state.adam, 0)
        probe = _step0_outcome(loss, self.batch_size)
        return SimpleNamespace(trainer=state, pool=pool, policy=policy, probe=probe)

    def run_op(self, run: SimpleNamespace, i: int) -> Outcome:
        st = run.trainer
        batch = _window(run.pool, i, self.samples_per_op)
        steps = math.ceil(len(batch) / self.batch_size)
        start = time.perf_counter()
        try:
            loss, acc = training.train_epoch(st.params, st.model_cfg, st.train_cfg, batch,
                                             st.stats, run.policy, st.adam, i + 1)
        except HgtnetError as exc:
            return Outcome(steps, len(batch), time.perf_counter() - start, failed=steps,
                           errors=[f"op {i}: {exc!r}"])
        seconds = time.perf_counter() - start
        ok = math.isfinite(loss)
        return Outcome(steps, len(batch), seconds, failed=0 if ok else steps,
                       values=(loss, acc),
                       errors=[] if ok else [f"op {i}: non-finite loss {loss!r}"])

    def final_checks(self, run: SimpleNamespace) -> list[str]:
        return []


class TinyFit:
    """``fit`` one epoch at a time on the ``hgtnet train --synth --tiny``
    desk run; every epoch also evaluates and writes its checkpoints."""

    name = "tiny-fit"
    unit = "epoch"
    headline = ("epoch_s", "s")
    setup_layers: tuple[str, ...] = ()

    def __init__(self, model_cfg: ModelConfig | None = None, batch_size: int = 16,
                 per_class: int = 40):
        # the CLI --tiny preset at 32 px, fixed here so the workload cannot drift
        self.model_cfg = model_cfg or ModelConfig(
            image_size=32, patch_size=16, embed_dim=8, num_heads=2, num_encoder_layers=1,
            mlp_ratio=2.0, cnn_channels=(4,), dropout_p=0.0)
        self.batch_size = batch_size
        self.per_class = per_class

    def config(self) -> dict:
        return {"model": vars(self.model_cfg), "batch_size": self.batch_size,
                "synth_per_class": self.per_class, "split": "stratified 90/10",
                "policy": f"train_policy({self.model_cfg.image_size})"}

    def setup(self, seed: int, workdir: str) -> SimpleNamespace:
        cfg = self.model_cfg
        # the same inputs `hgtnet train --synth --tiny --seed <seed>` builds
        samples = data.synth_dataset(self.per_class, cfg.image_size, RngStream(seed=seed))
        train, test = data.stratified_split(samples, 0.1, RngStream(seed=seed).derive("split"))
        stats = data.compute_stats(train)
        state = training.init_state(cfg, training.TrainConfig(batch_size=self.batch_size,
                                                              seed=seed),
                                    stats, CLASS_NAMES)
        # calibration probe: step 0 on a throwaway copy of the fresh state
        probe_state = copy.deepcopy(state)
        first = RngStream(seed=seed).derive("bench", "probe").shuffle(train)[:self.batch_size]
        loss, _ = training.train_epoch(probe_state.params, cfg, probe_state.train_cfg, first,
                                       stats, data.train_policy(cfg.image_size),
                                       probe_state.adam, 0)
        probe = _step0_outcome(loss, len(first))
        run = SimpleNamespace(trainer=state, train=train, test=test, workdir=workdir,
                              probe=probe)
        self._fit_epoch(run)  # warm-up
        return run

    def _fit_epoch(self, run: SimpleNamespace) -> list:
        st = run.trainer
        return training.fit(st, run.train, run.test, out_dir=run.workdir,
                            max_epochs=st.epoch + 1)

    def run_op(self, run: SimpleNamespace, i: int) -> Outcome:
        n = len(run.train)
        start = time.perf_counter()
        try:
            history = self._fit_epoch(run)
        except HgtnetError as exc:
            return Outcome(1, n, time.perf_counter() - start, failed=1,
                           errors=[f"op {i}: {exc!r}"])
        seconds = time.perf_counter() - start
        if len(history) != 1:
            return Outcome(1, n, seconds, failed=1,
                           errors=[f"op {i}: fit ran {len(history)} epochs, not 1"])
        r = history[0]
        ok = math.isfinite(r.train_loss) and math.isfinite(r.test_loss)
        return Outcome(1, n, seconds, failed=0 if ok else 1,
                       values=(r.train_loss, r.train_acc, r.test_loss, r.test_acc),
                       errors=[] if ok else [f"op {i}: non-finite loss in {r}"])

    def final_checks(self, run: SimpleNamespace) -> list[str]:
        saved = training.load_state(os.path.join(run.workdir, "last.ckpt"))
        if not _params_equal(saved.params, run.trainer.params):
            return ["last.ckpt does not hold the final parameters"]
        return []


class PaperEval:
    """``evaluate`` plus the report on a paper-config checkpoint that set-up
    writes and loads back: the forward-only, read-side path."""

    name = "paper-eval"
    unit = "sample"
    headline = ("eval_samples_per_s", "1/s")
    setup_layers = ("checkpoint.",)

    def __init__(self, model_cfg: ModelConfig | None = None, batch_size: int = 16,
                 samples_per_op: int = 16, pool_per_class: int = 4):
        self.model_cfg = model_cfg or ModelConfig()
        self.batch_size = batch_size
        self.samples_per_op = samples_per_op
        self.pool_per_class = pool_per_class

    def config(self) -> dict:
        return {"model": vars(self.model_cfg), "batch_size": self.batch_size,
                "num_threads": 1, "samples_per_op": self.samples_per_op,
                "pool": self.pool_per_class * len(CLASS_NAMES)}

    def setup(self, seed: int, workdir: str) -> SimpleNamespace:
        cfg = self.model_cfg
        pool = _shuffled_pool(seed, self.pool_per_class, cfg.image_size)
        stats = data.compute_stats(pool)
        state = training.init_state(cfg, training.TrainConfig(seed=seed), stats, CLASS_NAMES)
        path = os.path.join(workdir, "paper.ckpt")
        training.save_state(state, path)
        loaded = training.load_state(path)
        run = SimpleNamespace(trainer=loaded, pool=pool,
                              predictions=os.path.join(workdir, "predictions.csv"),
                              probe=None, setup_errors=[])
        if not _params_equal(loaded.params, state.params):
            run.setup_errors.append("checkpoint round trip changed the parameters")
        self._evaluate(run, pool[:self.samples_per_op])  # warm-up
        return run

    def _evaluate(self, run: SimpleNamespace, batch: list):
        st = run.trainer
        _, _, records = training.evaluate(st.params, st.model_cfg, batch, st.stats,
                                          batch_size=self.batch_size, num_threads=1)
        report = metrics.build_report(records, st.model_cfg.num_classes,
                                      class_names=st.class_names)
        metrics.write_predictions(run.predictions, records)
        return records, report

    def run_op(self, run: SimpleNamespace, i: int) -> Outcome:
        batch = _window(run.pool, i, self.samples_per_op)
        n = len(batch)
        start = time.perf_counter()
        try:
            records, report = self._evaluate(run, batch)
        except HgtnetError as exc:
            return Outcome(n, n, time.perf_counter() - start, failed=n,
                           errors=[f"op {i}: {exc!r}"])
        seconds = time.perf_counter() - start
        errors = []
        bad_rows = sum(abs(math.fsum(r.scores) - 1.0) > PROB_SUM_TOLERANCE for r in records)
        if bad_rows:
            errors.append(f"op {i}: {bad_rows} probability rows do not sum to 1")
        if len(records) != n:
            errors.append(f"op {i}: {len(records)} predictions for {n} samples")
            bad_rows = n
        for k, auc in enumerate(report.auc):
            if auc is not None and abs(auc - metrics.auc_pair_oracle(records, k)) > AUC_TOLERANCE:
                errors.append(f"op {i}: class {k} trapezoid AUC disagrees with the pair oracle")
        return Outcome(n, n, seconds, failed=bad_rows,
                       values=tuple(s for r in records for s in r.scores), errors=errors)

    def final_checks(self, run: SimpleNamespace) -> list[str]:
        return list(run.setup_errors)


WORKLOADS = {w.name: w for w in (PaperTrain, TinyFit, PaperEval)}
