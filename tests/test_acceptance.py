"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The criteria are property- and oracle-based: gradients against central
finite differences, normalization invariants over random forwards, metric
arithmetic against stated counts, AUC route equivalence, loss calibration
against log K, training sanity at desk scale, bitwise determinism and
persistence, and augmentation invariants.
"""

import math
import time

import numpy as np

from graph_reference import grid_adjacency
from hgtnet import data
from hgtnet import tensor as T
from hgtnet import training as tr
from hgtnet.gradcheck import check_gradients, op_battery
from hgtnet.metrics import (PredictionRecord, auc_pair_oracle, auc_trapezoid,
                            build_report, render_report, roc_curve,
                            write_predictions)
from hgtnet.model import init_params, model_forward, tiny_config
from hgtnet.rng import RngStream
from hgtnet.tensor import Tensor


class _criterion:
    """Prints the one-line verdict whether the body passed or raised."""

    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.num}] {self.name}: {status}")
        return False


def _randn(stream, *shape):
    n = int(np.prod(shape))
    return stream.normal(n).reshape(shape)


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    with _criterion(1, "gradient suite vs central differences"):
        start = time.monotonic()
        worst_op = 0.0
        for seed in range(20):
            for name, build, params in op_battery(seed):
                err = check_gradients(build, params)
                assert err < 1e-4, f"{name} (seed {seed}): {err}"
                worst_op = max(worst_op, err)
        worst_model = 0.0
        cfg = tiny_config(32)
        for seed in range(20):
            rng = RngStream(seed=1000 + seed)
            params = init_params(cfg, rng)
            x = Tensor(0.3 * _randn(rng.derive("x"), 1, 3, 32, 32))
            labels = np.array([seed % 5])
            rot = np.array([seed % 4])

            def loss(ps):
                cls, rlg = model_forward(x, cfg, params)
                return tr.combined_loss(cls, labels, rlg, rot)

            err = check_gradients(loss, list(params.values()),
                                  sample_per_param=2,
                                  rng=RngStream(seed=seed).derive("probe"))
            assert err < 1e-3, f"model seed {seed}: {err}"
            worst_model = max(worst_model, err)
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"suite took {elapsed:.0f}s"
        print(f"\n  worst op error {worst_op:.2e}, worst model error "
              f"{worst_model:.2e}, {elapsed:.0f}s", end="")


# ---------------------------------------------------------------------------
# 2. normalization invariants
# ---------------------------------------------------------------------------

def test_criterion_2_attention_rows_normalized():
    with _criterion(2, "attention row normalization + graph sparsity"):
        cfg = tiny_config(32)
        adj = grid_adjacency(cfg.grid_size, cfg.grid_size)
        for trial in range(100):
            rng = RngStream(seed=trial)
            params = init_params(cfg, rng)
            x = Tensor(_randn(rng.derive("x"), 1, 3, 32, 32))
            capture = {}
            model_forward(x, cfg, params, capture=capture)
            assert {"enc0.attn", "cross.attn", "gat.attn"} <= set(capture)
            for key, attn in capture.items():
                sums = attn.sum(axis=-1)
                assert np.abs(sums - 1.0).max() < 1e-9, (trial, key)
            gat = capture["gat.attn"]
            assert (gat[..., ~adj] == 0.0).all(), trial


# ---------------------------------------------------------------------------
# 3. metrics vs stated counts
# ---------------------------------------------------------------------------

def test_criterion_3_recall_cells_from_counts():
    with _criterion(3, "recall cells 0.95 / 0.98 / 0.91 from stated counts"):
        records = []
        n = 0

        def add(true, pred, count):
            nonlocal n
            for _ in range(count):
                scores = [0.05, 0.05, 0.05]
                scores[pred] = 0.9
                records.append(PredictionRecord(f"s{n}", true, tuple(scores)))
                n += 1

        add(0, 0, 474), add(0, 1, 26)      # 474 out of 500
        add(1, 1, 490), add(1, 0, 10)      # 490 out of 500
        add(2, 2, 453), add(2, 1, 46)      # 453 out of 499
        report = build_report(records, 3, class_names=["aca", "normal", "scc"])
        recall = report.prf.recall
        assert recall[0] == 474 / 500 and abs(recall[0] - 0.948) < 1e-15
        assert recall[1] == 490 / 500 and abs(recall[1] - 0.980) < 1e-15
        assert recall[2] == 453 / 499
        assert abs(recall[2] - 0.90781563126252505) < 1e-15
        text = render_report(report)
        cells = {ln.split()[0]: ln.split()[2] for ln in text.splitlines()
                 if ln.strip() and ln.split()[0] in ("aca", "normal", "scc")}
        assert cells == {"aca": "0.95", "normal": "0.98", "scc": "0.91"}


# ---------------------------------------------------------------------------
# 4. AUC oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_auc_routes_agree():
    with _criterion(4, "trapezoid AUC == pair-counting AUC (1000 instances)"):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            n = int(rng.integers(4, 201))
            scores = rng.uniform(size=n)
            if trial % 2:
                scores = np.round(scores, 1)   # force ties
            truth = rng.uniform(size=n) < rng.uniform(0.15, 0.85)
            if not truth.any():
                truth[0] = True
            if truth.all():
                truth[-1] = False
            records = [PredictionRecord(f"s{i}", int(truth[i]),
                                        (1.0 - scores[i], scores[i]))
                       for i in range(n)]
            a_trap = auc_trapezoid(roc_curve(records, 1))
            a_pair = auc_pair_oracle(records, 1)
            assert abs(a_trap - a_pair) < 1e-9, f"trial {trial}"
        perfect = ([PredictionRecord(f"p{i}", 1, (0.1, 0.9)) for i in range(5)]
                   + [PredictionRecord(f"n{i}", 0, (0.9, 0.1)) for i in range(5)])
        assert auc_trapezoid(roc_curve(perfect, 1)) == 1.0
        ties = ([PredictionRecord(f"p{i}", 1, (0.5, 0.5)) for i in range(5)]
                + [PredictionRecord(f"n{i}", 0, (0.5, 0.5)) for i in range(5)])
        assert auc_trapezoid(roc_curve(ties, 1)) == 0.5


# ---------------------------------------------------------------------------
# 5. loss calibration
# ---------------------------------------------------------------------------

def test_criterion_5_loss_calibration():
    with _criterion(5, "untrained CE near ln 5; +0.1 ln 4 for uniform rotations"):
        cfg = tiny_config(32)
        for seed in (0, 1, 2):
            rng = RngStream(seed=seed)
            params = init_params(cfg, rng)
            samples = data.synth_dataset(num_per_class=4, size=32,
                                         rng=rng.derive("data"))
            stats = data.compute_stats(samples)
            x = Tensor(data.normalize(np.stack([s.pixels for s in samples]), stats))
            labels = np.array([s.label for s in samples])
            cls, _ = model_forward(x, cfg, params)
            ce = tr.cross_entropy(cls, labels).item()
            assert abs(ce - math.log(5)) < 0.2, f"seed {seed}: CE {ce}"
            uniform_rot = Tensor(np.zeros((len(samples), 4)))
            rot_labels = np.arange(len(samples)) % 4
            combined = tr.combined_loss(cls, labels, uniform_rot, rot_labels).item()
            assert abs(combined - ce - 0.1 * math.log(4)) < 1e-6, f"seed {seed}"


# ---------------------------------------------------------------------------
# 6. training sanity
# ---------------------------------------------------------------------------

def test_criterion_6a_overfit_one_batch():
    with _criterion("6a", "overfit 32 samples to loss < 0.1 within 200 steps"):
        samples = data.synth_dataset(num_per_class=7, size=32,
                                     rng=RngStream(seed=5))[:32]
        stats = data.compute_stats(samples)
        cfg = tiny_config(32)
        tcfg = tr.TrainConfig(learning_rate=1e-2, seed=11)
        mild = data.AugmentPolicy(
            flip_prob=0.0, max_rotation_deg=5.0, jitter_brightness=0.1,
            jitter_contrast=0.1, jitter_saturation=0.1, jitter_hue=0.02,
            sharpness_factor=0.0, sharpness_prob=0.0, blur_kernel=1,
            target_size=(32, 32))
        x, labels, rot_labels = tr.prepare_batch(
            samples, mild, stats, RngStream(seed=3), epoch=0)
        params = init_params(cfg, RngStream(seed=11))
        adam = tr.init_adam(params)
        b = len(samples)
        final, steps = None, 0
        for step in range(200):
            cls_all, rot_all = model_forward(x, cfg, params)
            cls = T.take_rows(cls_all, 0, b)
            rot = T.take_rows(rot_all, b, 2 * b)
            loss = tr.combined_loss(cls, labels, rot, rot_labels)
            for p in params.values():
                p.zero_grad()
            T.backward(loss)
            tr.adam_step(params, adam, tcfg)
            final, steps = loss.item(), step + 1
            if final < 0.1:
                break
        assert final < 0.1, f"loss {final} after {steps} steps"
        print(f"\n  reached {final:.4f} in {steps} steps", end="")


def test_criterion_6b_synthetic_run_beats_chance():
    with _criterion("6b", "synthetic 40/class run exceeds 0.6 test accuracy"):
        start = time.monotonic()
        samples = data.synth_dataset(num_per_class=40, size=32,
                                     rng=RngStream(seed=7))
        train_samples, test_samples = data.stratified_split(
            samples, 0.1, RngStream(seed=7).derive("split"))
        stats = data.compute_stats(train_samples)
        cfg = tiny_config(32)
        tcfg = tr.TrainConfig(learning_rate=3e-3, batch_size=16, max_epochs=15,
                              seed=7)
        state = tr.init_state(cfg, tcfg, stats, [f"class{k}" for k in range(5)])
        policy = data.train_policy(32)
        best_acc = 0.0
        while state.epoch < 15:
            records = tr.fit(state, train_samples, test_samples, policy=policy,
                             max_epochs=state.epoch + 1)
            best_acc = max(best_acc, records[-1].test_acc)
            if best_acc > 0.6:
                break
        elapsed = time.monotonic() - start
        assert best_acc > 0.6, f"best accuracy {best_acc} after 15 epochs"
        assert elapsed < 600, f"took {elapsed:.0f}s"
        print(f"\n  accuracy {best_acc:.2f} after {state.epoch} epochs "
              f"({elapsed:.0f}s)", end="")


class _ScriptEnd(Exception):
    """fit asked for the test loss of an epoch past the end of the script."""


def test_criterion_6c_early_stopping_is_exact(monkeypatch, tmp_path):
    stats = data.DatasetStats(mean=np.full(3, 0.5), std=np.full(3, 0.2))

    def fit_on_script(test_losses, state=None, max_epochs=None):
        """fit with train_epoch a no-op and evaluate returning the scripted
        losses; the final state, or None when fit asks for more epochs."""
        script = iter(test_losses)

        def evaluate(*args, **kwargs):
            for loss in script:
                return loss, 0.0, []
            raise _ScriptEnd

        if state is None:
            state = tr.init_state(tiny_config(32), tr.TrainConfig(patience=10, max_epochs=100),
                                  stats, [f"class{k}" for k in range(5)])
        with monkeypatch.context() as patch:
            patch.setattr(tr, "train_epoch", lambda *args, **kwargs: (0.0, 0.0))
            patch.setattr(tr, "evaluate", evaluate)
            try:
                tr.fit(state, [], [], max_epochs=max_epochs)
            except _ScriptEnd:
                return None
        return state

    with _criterion("6c", "early stop after exactly 10 flat epochs"):
        for k in range(1, 13):
            state = fit_on_script([1.0] + [1.0] * k)
            if k < 10:
                assert state is None, f"{k} flat epochs"
            else:
                assert (state.epoch, state.best_epoch) == (11, 1), f"{k} flat epochs"
        # improvements keep resetting the counter
        longer = [1.0, 1.1, 1.2, 0.9] + [0.95] * 9
        assert fit_on_script(longer) is None
        state = fit_on_script(longer + [0.95])
        assert (state.epoch, state.best_epoch) == (14, 4)
        # a checkpoint round trip in the middle of the flat run keeps the counter
        tr.save_state(fit_on_script([1.0] * 5, max_epochs=5), tmp_path / "mid.ckpt")
        state = fit_on_script([1.0] * 7, state=tr.load_state(tmp_path / "mid.ckpt"))
        assert (state.epoch, state.best_epoch) == (11, 1)


# ---------------------------------------------------------------------------
# 7. determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_7_determinism_and_persistence(tmp_path):
    with _criterion(7, "bitwise determinism, round trip, resume"):
        samples = data.synth_dataset(num_per_class=5, size=32,
                                     rng=RngStream(seed=3))
        train_samples, test_samples = data.stratified_split(
            samples, 0.2, RngStream(seed=3).derive("split"))
        stats = data.compute_stats(train_samples)
        cfg = tiny_config(32)
        tcfg = tr.TrainConfig(learning_rate=3e-3, batch_size=8, max_epochs=2,
                              seed=9)
        names = [f"class{k}" for k in range(5)]
        policy = data.train_policy(32)

        # (a) same seed -> bitwise-identical history CSVs
        paths = []
        for tag in ("one", "two"):
            state = tr.init_state(cfg, tcfg, stats, names)
            history = tr.fit(state, train_samples, test_samples, policy=policy)
            path = tmp_path / f"history_{tag}.csv"
            tr.write_history(path, history)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        # (b) checkpoint round trip -> bitwise-identical eval outputs
        state = tr.init_state(cfg, tcfg, stats, names)
        tr.fit(state, train_samples, test_samples, policy=policy)
        ckpt_path = tmp_path / "state.ckpt"
        tr.save_state(state, ckpt_path)
        reloaded = tr.load_state(ckpt_path)
        l1, a1, r1 = tr.evaluate(state.params, cfg, test_samples, stats)
        l2, a2, r2 = tr.evaluate(reloaded.params, reloaded.model_cfg,
                                 test_samples, reloaded.stats)
        assert l1 == l2 and a1 == a2 and r1 == r2
        csv1, csv2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        write_predictions(csv1, r1)
        write_predictions(csv2, r2)
        assert csv1.read_bytes() == csv2.read_bytes()

        # (c) resumed training matches the unresumed next epoch bitwise
        straight = tr.init_state(cfg, tcfg, stats, names)
        h_straight = tr.fit(straight, train_samples, test_samples, policy=policy,
                            max_epochs=2)
        partial = tr.init_state(cfg, tcfg, stats, names)
        tr.fit(partial, train_samples, test_samples, policy=policy, max_epochs=1)
        tr.save_state(partial, tmp_path / "mid.ckpt")
        resumed = tr.load_state(tmp_path / "mid.ckpt")
        h_resumed = tr.fit(resumed, train_samples, test_samples, policy=policy,
                           max_epochs=2)
        assert h_resumed[0].train_loss == h_straight[1].train_loss
        assert h_resumed[0].test_loss == h_straight[1].test_loss
        for n in straight.params:
            assert np.array_equal(straight.params[n].data, resumed.params[n].data)


# ---------------------------------------------------------------------------
# 8. augmentation invariants
# ---------------------------------------------------------------------------

def test_criterion_8_augmentation_invariants():
    with _criterion(8, "rotation identity, kernel mass, range, degenerate pipeline"):
        rng = RngStream(seed=21)
        samples = data.synth_dataset(num_per_class=2, size=48, rng=rng)

        # 90-degree pretext rotations compose to the identity bitwise
        for s in samples[:5]:
            once = data.rotate90(s.pixels, 1)
            assert np.array_equal(
                data.rotate90(data.rotate90(data.rotate90(once, 1), 1), 1),
                s.pixels)
            for k in range(4):
                assert np.array_equal(
                    data.rotate90(data.rotate90(s.pixels, k), (4 - k) % 4),
                    s.pixels)

        # Gaussian kernels sum to 1 within 1e-12
        for sigma in (0.1, 0.37, 1.0, 2.0, 5.0):
            for kernel in (3, 5, 9):
                weights = data.gaussian_kernel1d(kernel, sigma)
                assert abs(weights.sum() - 1.0) < 1e-12, (sigma, kernel)

        # every augmented pixel stays inside [0, 1]
        policy = data.train_policy(32)
        shard = [samples[trial % len(samples)] for trial in range(25)]
        out = data.apply_policy(shard, policy, [rng.derive("aug", trial, s.id)
                                                for trial, s in enumerate(shard)])
        assert out.shape == (25, 32, 32, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

        # randomness disabled (every transform off) -> exactly resize + normalize
        stats = data.compute_stats(samples)
        off = data.AugmentPolicy(flip_prob=0.0, max_rotation_deg=0.0, jitter_brightness=0.0,
                                 jitter_contrast=0.0, jitter_saturation=0.0, jitter_hue=0.0,
                                 sharpness_prob=0.0, blur_kernel=1, target_size=(32, 32))
        plain = data.apply_policy(samples, off, [rng.derive("off", s.id) for s in samples])
        resized = np.stack([data.resize_bilinear(s, 32, 32).pixels for s in samples])
        assert np.array_equal(plain, resized)
        assert np.array_equal(data.normalize(plain, stats), data.normalize(resized, stats))
