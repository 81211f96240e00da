"""Losses against closed forms, Adam against hand arithmetic, loop
determinism, overfit sanity, early stopping, and resume equivalence."""

import csv
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hgtnet import checkpoint as ckpt
from hgtnet import data
from hgtnet import tensor as T
from hgtnet import training as tr
from hgtnet.errors import (CheckpointError, ConfigError, ContractError,
                           DataError, DivergenceError, ShapeError)
from hgtnet.gradcheck import check_gradients
from hgtnet.kvtext import from_kv, to_kv
from hgtnet.model import ModelConfig, init_params, model_forward, tiny_config
from hgtnet.rng import RngStream
from hgtnet.tensor import Tensor


def _synth_setup(per_class=4, seed=7, lr=3e-3, **train_overrides):
    samples = data.synth_dataset(num_per_class=per_class, size=32,
                                 rng=RngStream(seed=seed))
    train, test = data.stratified_split(samples, 0.25, RngStream(seed=1))
    stats = data.compute_stats(train)
    cfg = tiny_config()
    kwargs = dict(learning_rate=lr, batch_size=8, max_epochs=2, seed=11)
    kwargs.update(train_overrides)
    tcfg = tr.TrainConfig(**kwargs)
    names = [f"class{k}" for k in range(5)]
    return samples, train, test, stats, cfg, tcfg, names


class TestCrossEntropy:
    def test_huge_margin_drives_loss_to_zero(self):
        logits = Tensor(np.array([[50.0, 0.0, 0.0, 0.0, 0.0]]))
        loss = tr.cross_entropy(logits, [0])
        assert loss.item() < 1e-9

    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((8, 5)))
        loss = tr.cross_entropy(logits, np.arange(8) % 5)
        assert loss.item() == math.log(5)

    def test_matches_direct_softmax_arithmetic(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(16, 5)) * 3
        labels = rng.integers(0, 5, size=16)
        logits = Tensor(z)
        loss = tr.cross_entropy(logits, labels)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expect = -np.log(probs[np.arange(16), labels]).mean()
        assert abs(loss.item() - expect) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=6)
        err = check_gradients(lambda ps: tr.cross_entropy(logits, labels), [logits])
        assert err < 1e-6

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        z = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        logits = Tensor(z, requires_grad=True)
        loss = tr.cross_entropy(logits, [2, 0])
        T.backward(loss)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        probs[0, 2] -= 1
        probs[1, 0] -= 1
        assert np.allclose(logits.grad, probs / 2, atol=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            tr.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ContractError):
            tr.cross_entropy(Tensor(np.zeros((2, 3))), [-1, 0])

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError):
            tr.cross_entropy(Tensor(np.zeros(3)), [0])

    def test_label_count_mismatch(self):
        with pytest.raises(ContractError):
            tr.cross_entropy(Tensor(np.zeros((2, 3))), [0])


class TestCombinedLoss:
    def test_uniform_rotation_logits_add_tenth_of_log4(self):
        rng = np.random.default_rng(10)
        cls = Tensor(rng.normal(size=(6, 5)))
        labels = rng.integers(0, 5, size=6)
        rot = Tensor(np.zeros((6, 4)))
        rot_labels = rng.integers(0, 4, size=6)
        plain = tr.cross_entropy(cls, labels).item()
        combined = tr.combined_loss(cls, labels, rot, rot_labels).item()
        assert abs(combined - plain - 0.1 * math.log(4)) < 1e-12

    def test_additive_decomposition(self):
        rng = np.random.default_rng(11)
        cls = Tensor(rng.normal(size=(5, 5)))
        rot = Tensor(rng.normal(size=(5, 4)))
        labels = rng.integers(0, 5, size=5)
        rot_labels = rng.integers(0, 4, size=5)
        lam = tr.ROTATION_LOSS_WEIGHT
        combined = tr.combined_loss(cls, labels, rot, rot_labels).item()
        parts = (tr.cross_entropy(cls, labels).item()
                 + lam * tr.cross_entropy(rot, rot_labels).item())
        assert abs(combined - parts) < 1e-12


class TestAdam:
    def _cfg(self, lr=1e-4):
        return tr.TrainConfig(learning_rate=lr)

    def test_first_step_closed_form(self):
        # constant gradient 1: both bias-corrected moments are exactly 1,
        # so the step is lr / (1 + eps)
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.ones(3)
        params = {"p": p}
        moments = tr.init_adam(params)
        cfg = self._cfg()
        tr.adam_step(params, moments, cfg)
        assert moments.t == 1
        expect = -cfg.learning_rate / (1.0 + tr.ADAM_EPS)
        assert np.allclose(p.data, expect, rtol=0, atol=1e-18)

    def test_two_constant_steps(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        params = {"p": p}
        moments = tr.init_adam(params)
        cfg = self._cfg(lr=0.5)
        for t in (1, 2):
            p.grad = np.ones(1)
            tr.adam_step(params, moments, cfg)
            assert moments.t == t
            assert abs(p.data[0] - (-t * 0.5 / (1.0 + tr.ADAM_EPS))) < 1e-12

    def test_steps_from_init_match_the_closed_form_at_each_t(self):
        # a constant gradient g gives m_t = (1 - b1^t) g and v_t = (1 - b2^t)
        # g^2, so every bias-corrected step is lr g / (|g| + eps)
        g = np.array([2.0, -0.5, 1e-3])
        p = Tensor(np.zeros(3), requires_grad=True)
        params = {"p": p}
        moments = tr.init_adam(params)
        cfg = self._cfg(lr=0.01)
        b1, b2 = tr.ADAM_BETA1, tr.ADAM_BETA2
        for t in range(1, 8):
            p.grad = g.copy()
            tr.adam_step(params, moments, cfg)
            assert moments.t == t
            assert np.allclose(moments.m["p"], (1 - b1 ** t) * g, rtol=1e-13, atol=0)
            assert np.allclose(moments.v["p"], (1 - b2 ** t) * g * g, rtol=1e-13, atol=0)
            step = cfg.learning_rate * g / (np.abs(g) + tr.ADAM_EPS)
            assert np.allclose(p.data, -t * step, rtol=1e-12, atol=0)

    def test_moment_accumulation_matches_formula(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([2.0, -1.0])
        params = {"p": p}
        moments = tr.init_adam(params)
        cfg = self._cfg()
        tr.adam_step(params, moments, cfg)
        assert np.allclose(moments.m["p"], (1 - tr.ADAM_BETA1) * p.grad, atol=1e-18)
        assert np.allclose(moments.v["p"], (1 - tr.ADAM_BETA2) * p.grad ** 2,
                           atol=1e-18)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Tensor(np.full(4, 1.5), requires_grad=True)
        p.grad = np.zeros(4)
        params = {"p": p}
        moments = tr.init_adam(params)
        tr.adam_step(params, moments, self._cfg())
        assert np.array_equal(p.data, np.full(4, 1.5))

    def test_missing_gradient_counts_as_zero(self):
        p = Tensor(np.full(4, 1.5), requires_grad=True)
        params = {"p": p}
        moments = tr.init_adam(params)
        tr.adam_step(params, moments, self._cfg())
        assert np.array_equal(p.data, np.full(4, 1.5))

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = np.zeros(4)
        params = {"p": p}
        with pytest.raises(ContractError):
            tr.adam_step(params, tr.init_adam(params), self._cfg())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(batch_size=0)


class TestBatching:
    def test_views_and_rotated_copies_are_two_arrays(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        batch = train[:4]
        x, x_rot, labels, rot_labels = tr.prepare_batch(
            batch, data.train_policy(32), stats, RngStream(seed=2), epoch=0)
        assert x.shape == x_rot.shape == (4, 3, 32, 32)
        # two arrays, not two views of one, so a task can free the views'
        assert x.base is None and x_rot.base is None
        assert labels.shape == (4,)
        assert set(rot_labels) <= {0, 1, 2, 3}
        # each copy is its view rotated, normalized like it
        for view, copy, k in zip(x, x_rot, rot_labels):
            assert np.array_equal(copy, np.rot90(view, k=-int(k), axes=(1, 2)))

    def test_sample_rows_do_not_depend_on_the_shard(self):
        # a sample's normalized view, rotated copy and labels are the same
        # bytes alone and at every position of shards of 3 and 8; the 40 px
        # sources go through the resize to 32
        samples = data.synth_dataset(num_per_class=2, size=40, rng=RngStream(seed=3))
        stats = data.compute_stats(samples)
        target, others = samples[4], samples[:4] + samples[5:]

        def rows(shard, i):
            x, x_rot, labels, rot_labels = tr.prepare_batch(
                shard, data.train_policy(32), stats, RngStream(seed=2), epoch=1)
            return [x[i].tobytes(), labels[i], x_rot[i].tobytes(), rot_labels[i]]

        alone = rows([target], 0)
        for size in (3, 8):
            for i in range(size):
                shard = others[:size - 1]
                shard.insert(i, target)
                assert rows(shard, i) == alone, (size, i)

    def test_partial_final_batch_still_steps(self):
        # 17 samples / batch 8 -> 3 optimizer steps (8, 8, 1)
        samples, train, test, stats, cfg, tcfg, names = _synth_setup(per_class=4)
        subset = samples[:17]
        params = init_params(cfg, RngStream(seed=4))
        adam = tr.init_adam(params)
        tr.train_epoch(params, cfg, tcfg, subset, stats, data.train_policy(32),
                       adam, epoch=0)
        assert adam.t == 3

    def test_empty_dataset_rejected(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        with pytest.raises(DataError):
            tr.train_epoch({}, cfg, tcfg, [], stats, data.train_policy(32),
                           tr.init_adam({}), 0)


class TestEpochDeterminism:
    def test_same_seed_same_parameters_bitwise(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        results = []
        for _ in range(2):
            params = init_params(cfg, RngStream(seed=4))
            adam = tr.init_adam(params)
            loss, acc = tr.train_epoch(params, cfg, tcfg, train, stats,
                                       data.train_policy(32), adam, epoch=0)
            results.append((loss, acc, {n: p.data.copy() for n, p in params.items()}))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        for n in results[0][2]:
            assert np.array_equal(results[0][2][n], results[1][2][n])

    def test_different_epoch_shuffles_differently(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        root = RngStream(seed=tcfg.seed)
        o0 = root.derive("shuffle", 0).shuffle(list(range(len(train))))
        o1 = root.derive("shuffle", 1).shuffle(list(range(len(train))))
        assert o0 != o1


def _sharded_setup(dropout_p=0.25, batch_size=10):
    samples = data.synth_dataset(num_per_class=2, size=32, rng=RngStream(seed=7))
    stats = data.compute_stats(samples)
    cfg = tiny_config(dropout_p=dropout_p)
    tcfg = tr.TrainConfig(learning_rate=3e-3, batch_size=batch_size, seed=11)
    return samples, stats, cfg, tcfg


def _one_epoch(samples, stats, cfg, tcfg):
    params = init_params(cfg, RngStream(seed=tcfg.seed))
    loss, acc = tr.train_epoch(params, cfg, tcfg, samples, stats, data.train_policy(32),
                               tr.init_adam(params), 0)
    return loss, acc, params


class TestShardedStep:
    def test_parameters_equal_at_one_and_two_workers(self, monkeypatch):
        samples, stats, cfg, tcfg = _sharded_setup(batch_size=4)
        monkeypatch.setattr(tr, "THREAD_MIN_CONV_OUT", 0)
        threads, images = [], []
        forward = tr.model_forward

        def spy(x, *args, **kwargs):
            threads.append(threading.get_ident())
            images.append(x.shape[0])
            return forward(x, *args, **kwargs)

        monkeypatch.setattr(tr, "model_forward", spy)
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
            threads.clear()
            images.clear()
            runs[workers] = _one_epoch(samples, stats, cfg, tcfg)
            on_main = {t == threading.main_thread().ident for t in threads}
            assert on_main == ({True} if workers == 1 else {False})
            # one task per sample: its view, then its rotated copy
            assert images == [1] * 2 * len(samples)
        (l1, a1, p1), (l2, a2, p2) = runs[1], runs[2]
        assert (l1, a1) == (l2, a2)
        for name in p1:
            assert p1[name].data.tobytes() == p2[name].data.tobytes(), name

    def test_per_sample_tasks_and_one_batch_task_agree_on_loss_and_gradients(self, monkeypatch):
        samples, stats, cfg, tcfg = _sharded_setup()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        images = []
        forward = tr.model_forward

        def spy(x, *args, **kwargs):
            images.append(x.shape[0])
            return forward(x, *args, **kwargs)

        monkeypatch.setattr(tr, "model_forward", spy)
        runs = {}
        # the batch's views, then its copies; or each sample's view, then its copy
        for threshold, split in ((tr.THREAD_MIN_CONV_OUT, [10, 10]), (0, [1] * 20)):
            monkeypatch.setattr(tr, "THREAD_MIN_CONV_OUT", threshold)
            images.clear()
            runs[threshold] = _one_epoch(samples, stats, cfg, tcfg)
            assert images == split
        (l1, _, p1), (l2, _, p2) = runs.values()
        assert l1 == pytest.approx(l2, rel=1e-12, abs=0.0)
        scale = max(np.abs(p.grad).max() for p in p1.values())
        for name in p1:
            assert np.abs(p1[name].grad - p2[name].grad).max() <= 1e-12 * scale, name

    def test_a_samples_dropout_mask_does_not_depend_on_its_batch(self, monkeypatch):
        samples, stats, cfg, tcfg = _sharded_setup(dropout_p=0.5)
        masks = {}
        dropout = T.dropout

        def spy(x, p, rngs):
            ids = [r.stream_id for r in rngs]
            out = dropout(x, p, rngs)
            for i, key in enumerate(ids):
                masks.setdefault(key, out.data[i] != 0.0)  # the first call's mask
            return out

        monkeypatch.setattr(T, "dropout", spy)
        target = samples[3]
        key = RngStream(seed=tcfg.seed).derive("drop", 0, target.id).stream_id
        seen = []
        for batch in ([target] + samples[5:8], samples[:3] + [target]):
            masks.clear()
            _one_epoch(batch, stats, cfg, tcfg)
            seen.append(masks[key])
        assert 0 < seen[0].sum() < seen[0].size
        assert np.array_equal(seen[0], seen[1])

    def test_every_record_a_step_builds_is_walked(self, monkeypatch):
        # the views' forward builds no rotation head and the copies' no
        # class head, so each walk reaches every record its forward built
        samples, stats, cfg, tcfg = _sharded_setup(dropout_p=0.5)
        built, walked = [], set()
        make, backward = T._make, T.backward

        def make_spy(*args):
            out = make(*args)
            built.append(out.op_record)  # kept, so no record's id is reused
            return out

        def backward_spy(loss):
            stack = [loss.op_record]
            while stack:
                record = stack.pop()
                if isinstance(record, T.OpRecord) and id(record) not in walked:
                    walked.add(id(record))
                    stack.extend(record.parents)
            backward(loss)

        monkeypatch.setattr(T, "_make", make_spy)
        monkeypatch.setattr(T, "backward", backward_spy)
        _one_epoch(samples, stats, cfg, tcfg)
        assert walked and {id(r) for r in built if r is not None} == walked

    def test_shard_error_reaches_the_caller_and_blas_threads_are_restored(
            self, monkeypatch):
        # a batch of exactly two tasks, so that both start before the error
        # comes back
        samples, stats, cfg, tcfg = _sharded_setup(batch_size=2)
        if T.pin_blas_threads(2) is None:
            pytest.skip("numpy's BLAS has no thread-count symbols")
        monkeypatch.setattr(tr, "THREAD_MIN_CONV_OUT", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        error = ShapeError("bad shard")
        inside = []

        def failing_forward(*args, **kwargs):
            inside.append(T.pin_blas_threads(1))
            raise error

        monkeypatch.setattr(tr, "model_forward", failing_forward)
        with pytest.raises(ShapeError) as caught:
            _one_epoch(samples, stats, cfg, tcfg)
        assert caught.value is error
        assert inside == [1, 1]
        assert T.pin_blas_threads(1) == 2

    @staticmethod
    def _traced_peak_of_a_shard_step(size, count=2):
        """tracemalloc's peak, in MiB, over one paper-default shard step of
        ``count`` synthetic images (and their rotated copies) at ``size`` px."""
        cfg = ModelConfig(image_size=size)
        samples = data.synth_dataset(1, size, RngStream(seed=3))[:count]
        stats = data.compute_stats(samples)
        params = init_params(cfg, RngStream(seed=5))
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already traces this session; its peak would "
                        "count allocations made before the step")
        tracemalloc.start()
        try:
            tr._shard_step(params, cfg, samples, 2, stats, data.train_policy(size),
                           RngStream(seed=5), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    # numpy reports every array to tracemalloc, so these peaks are the same
    # to 0.01 MiB on every run.  At 64 px: 13.8 MiB, in the second CNN
    # conv's forward over the rotated copies
    def test_traced_peak_of_a_64px_shard_step(self):
        peak = self._traced_peak_of_a_shard_step(64)
        assert peak <= 14.5, f"{peak:.1f} MiB"

    # one sample, the task of a threaded step: 11.4 MiB, in the copies'
    # walk, at an encoder MLP's first linear map
    def test_traced_peak_of_a_one_sample_64px_shard_step(self):
        peak = self._traced_peak_of_a_shard_step(64, count=1)
        assert peak <= 12.0, f"{peak:.1f} MiB"

    # the paper's scale: 51.7 MiB, in the cross-attention's backward in the
    # copies' walk
    def test_traced_peak_of_a_224px_shard_step(self):
        peak = self._traced_peak_of_a_shard_step(224)
        assert peak <= 54.3, f"{peak:.1f} MiB"

    # one sample, the task of a threaded paper-scale step: 30.4 MiB, in the
    # cross-attention's backward in the copies' walk
    def test_traced_peak_of_a_one_sample_224px_shard_step(self):
        peak = self._traced_peak_of_a_shard_step(224, count=1)
        assert peak <= 32.0, f"{peak:.1f} MiB"

    # one 224 px evaluation forward: 6.6 MiB, its input included, in the
    # first CNN conv's forward
    def test_traced_peak_of_a_224px_eval_sample(self):
        cfg = ModelConfig(image_size=224)
        sample = data.synth_dataset(1, 224, RngStream(seed=3))[0]
        stats = data.compute_stats([sample])
        frozen = {name: Tensor(p.data) for name, p in init_params(cfg, RngStream(seed=5)).items()}
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already traces this session; its peak would "
                        "count allocations made before the forward")
        tracemalloc.start()
        try:
            tr._eval_sample(frozen, cfg, stats, sample)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= 6.9, f"{peak:.1f} MiB"

    @staticmethod
    def _traced_peak_of_a_train_step(batch):
        """tracemalloc's peak, in MiB, over one paper-default ``train_epoch``
        step of ``batch`` synthetic 64 px samples."""
        cfg = ModelConfig(image_size=64)
        samples = data.synth_dataset(2, 64, RngStream(seed=3))[:batch]
        stats = data.compute_stats(samples)
        params = init_params(cfg, RngStream(seed=5))
        adam = tr.init_adam(params)
        tcfg = tr.TrainConfig(batch_size=batch, seed=5)
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already traces this session; its peak would "
                        "count allocations made before the step")
        tracemalloc.start()
        try:
            tr.train_epoch(params, cfg, tcfg, samples, stats, data.train_policy(64), adam, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    # one task per sample: the step holds one sample's graph at a time, so
    # its peak does not grow with the batch: 19.5 MiB at batch 2 and 8 (two
    # shards read 26.2 MiB at batch 2 and 31.7 MiB at batch 8)
    def test_traced_peak_of_a_64px_train_step_does_not_grow_with_the_batch(
            self, monkeypatch):
        # one core, so the tasks run inline and the peak does not depend on
        # the thread schedule
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        small, large = (self._traced_peak_of_a_train_step(b) for b in (2, 8))
        assert abs(large - small) <= 0.05 * small, f"{small:.1f} and {large:.1f} MiB"

    # two workers run two tasks at once, so from batch 4 on the step can
    # hold two running tasks, the summed gradients and the gradients of a
    # finished task that the main thread is adding in: at most two 8.1 MiB
    # gradient sets and two 11.5 MiB one-sample tasks, 39.2 MiB.  How close
    # the peak comes to that depends on the thread schedule: 22.1-22.8 MiB
    # at batch 2 and 28.8-30.9 MiB at batch 4, 8 and 10, over four runs each
    def test_traced_peak_of_a_64px_train_step_on_two_workers_holds_two_tasks(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        peak = self._traced_peak_of_a_train_step(8)
        assert peak <= 40.0, f"{peak:.1f} MiB"


_HOST_RUN = """
import hashlib
from hgtnet import data, training
from hgtnet.model import ModelConfig
from hgtnet.rng import RngStream
cfg = ModelConfig(embed_dim=8, num_heads=2, num_encoder_layers=1, cnn_channels=(2,))
samples = data.synth_dataset(1, 224, RngStream(seed=3).derive("synth"))[:2]
stats = data.compute_stats(samples)
state = training.init_state(cfg, training.TrainConfig(batch_size=2, seed=5), stats, ["c"] * 5)
training.train_epoch(state.params, cfg, state.train_cfg, samples, stats,
                     data.train_policy(224), state.adam, 0)
print(hashlib.sha256(b"".join(p.data.tobytes() for p in state.params.values())).hexdigest())
"""


# four paper-default samples at 224 px: an evaluate that ran them as one
# batched forward gave other scores at 1 and at 2 BLAS threads
_HOST_EVAL = """
import hashlib
import numpy as np
from hgtnet import data, training
from hgtnet.model import ModelConfig
from hgtnet.rng import RngStream
cfg = ModelConfig()
samples = data.synth_dataset(1, 224, RngStream(seed=3).derive("synth"))[:4]
stats = data.compute_stats(samples)
state = training.init_state(cfg, training.TrainConfig(seed=5), stats, ["c"] * 5)
_, _, records = training.evaluate(state.params, cfg, samples, stats)
print(hashlib.sha256(np.array([r.scores for r in records]).tobytes()).hexdigest())
"""


def _digests_at_one_and_two_blas_threads(script: str) -> list[str]:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.path.abspath(src))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    return digests


class TestHostIndependence:
    def test_blas_thread_count_does_not_change_training(self):
        # one 224 px step of a small model: at this size OpenBLAS splits its
        # GEMMs differently at 1 and 2 threads, so an unpinned trainer forks
        digests = _digests_at_one_and_two_blas_threads(_HOST_RUN)
        assert digests[0] == digests[1]

    def test_blas_thread_count_does_not_change_evaluation(self):
        digests = _digests_at_one_and_two_blas_threads(_HOST_EVAL)
        assert digests[0] == digests[1]


class TestOverfitOneBatch:
    def test_loss_below_point_one_within_200_steps(self):
        samples = data.synth_dataset(num_per_class=7, size=32,
                                     rng=RngStream(seed=5))[:32]
        stats = data.compute_stats(samples)
        cfg = tiny_config()
        tcfg = tr.TrainConfig(learning_rate=1e-2, seed=11)
        views, copies, labels, rot_labels = tr.prepare_batch(
            samples, data.train_policy(32), stats, RngStream(seed=3), epoch=0)
        x = Tensor(np.concatenate([views, copies]))
        params = init_params(cfg, RngStream(seed=11))
        adam = tr.init_adam(params)
        b = len(samples)
        final = None
        for step in range(200):
            cls_all, rot_all = model_forward(x, cfg, params)
            cls = T.take_rows(cls_all, 0, b)
            rot = T.take_rows(rot_all, b, 2 * b)
            loss = tr.combined_loss(cls, labels, rot, rot_labels)
            for p in params.values():
                p.zero_grad()
            T.backward(loss)
            tr.adam_step(params, adam, tcfg)
            final = loss.item()
            if final < 0.1:
                break
        assert final < 0.1, f"stuck at {final} after {step + 1} steps"


def _score_bytes(records) -> bytes:
    return np.array([r.scores for r in records]).tobytes()


class TestEvaluate:
    def test_zero_model_predicts_uniform(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        params = init_params(cfg, RngStream(seed=4))
        for p in params.values():
            p.data[...] = 0.0
        loss, acc, records = tr.evaluate(params, cfg, test, stats)
        assert abs(loss - math.log(5)) < 1e-12
        assert len(records) == len(test)
        for r in records:
            assert np.allclose(r.scores, 0.2, atol=1e-15)
        # all-equal scores -> argmax 0 for every sample
        expect_acc = sum(s.label == 0 for s in test) / len(test)
        assert acc == expect_acc

    def test_loss_recomputable_from_records(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        params = init_params(cfg, RngStream(seed=4))
        loss, acc, records = tr.evaluate(params, cfg, test, stats)
        recomputed = -np.mean([math.log(r.scores[r.true_label]) for r in records])
        assert abs(loss - recomputed) < 1e-12

    def test_scores_sum_to_one(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        params = init_params(cfg, RngStream(seed=4))
        _, _, records = tr.evaluate(params, cfg, test, stats)
        for r in records:
            assert abs(sum(r.scores) - 1.0) < 1e-9

    def test_threaded_evaluation_is_bitwise_identical(self, monkeypatch):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup(per_class=6)
        params = init_params(cfg, RngStream(seed=4))
        monkeypatch.setattr(tr, "THREAD_MIN_CONV_OUT", 0)
        threads = []
        forward = tr.model_forward

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return forward(*args, **kwargs)

        monkeypatch.setattr(tr, "model_forward", spy)
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
            threads.clear()
            runs[workers] = tr.evaluate(params, cfg, samples, stats)
            assert len(threads) == len(samples)  # one forward per sample
            on_main = {t == threading.main_thread().ident for t in threads}
            assert on_main == ({True} if workers == 1 else {False})
        (l1, a1, r1), (l2, a2, r2) = runs[1], runs[2]
        assert (l1, a1) == (l2, a2)
        assert _score_bytes(r1) == _score_bytes(r2)
        assert [r.sample_id for r in r2] == [s.id for s in samples]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_samples_record_does_not_depend_on_its_company(self, monkeypatch, workers):
        # a batched forward gave this sample other last bits at four of the
        # five positions below
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        monkeypatch.setattr(tr, "THREAD_MIN_CONV_OUT", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        params = init_params(cfg, RngStream(seed=4))
        target, others = test[1], train[:4]
        (alone,) = tr.evaluate(params, cfg, [target], stats)[2]
        for i in range(5):
            records = tr.evaluate(params, cfg, others[:i] + [target] + others[i:], stats)[2]
            assert records[i].sample_id == target.id
            assert _score_bytes([records[i]]) == _score_bytes([alone]), i

    def test_worker_error_reaches_the_caller_and_blas_threads_are_restored(
            self, monkeypatch):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        params = init_params(cfg, RngStream(seed=4))
        if T.pin_blas_threads(2) is None:
            pytest.skip("numpy's BLAS has no thread-count symbols")
        monkeypatch.setattr(tr, "THREAD_MIN_CONV_OUT", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        error = ShapeError("bad sample")
        inside = []

        def failing_forward(*args, **kwargs):
            inside.append((T.pin_blas_threads(1), threading.get_ident()))
            raise error

        monkeypatch.setattr(tr, "model_forward", failing_forward)
        with pytest.raises(ShapeError) as caught:
            tr.evaluate(params, cfg, test[:3], stats)
        assert caught.value is error
        # the pool cancels the samples that had not started when one failed
        assert inside and {blas for blas, _ in inside} == {1}
        assert threading.main_thread().ident not in {t for _, t in inside}
        assert T.pin_blas_threads(1) == 2

    def test_records_no_graph_and_matches_tracked_forward(self, monkeypatch):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        params = init_params(cfg, RngStream(seed=4))
        # the oracle: one tracked forward of each sample alone
        probs, losses = [], []
        for s in test:
            x = Tensor(data.normalize(data.resize_bilinear(s, 32, 32).pixels[None], stats))
            cls, _ = model_forward(x, cfg, params)
            assert cls.op_record is not None  # the trainable params do record a graph
            z = cls.data
            ez = np.exp(z - z.max(axis=1, keepdims=True))
            probs.append(ez[0] / ez.sum(axis=1, keepdims=True)[0])
            losses.append(float(z.max() + np.log(ez.sum()) - z[0, s.label]))

        built = []
        monkeypatch.setattr(T, "OpRecord", lambda *args: built.append(args))
        loss, _, records = tr.evaluate(params, cfg, test, stats)
        assert built == []
        assert loss == sum(losses) / len(test)
        assert [r.scores for r in records] == [tuple(float(v) for v in row) for row in probs]

    def test_duplicate_samples_give_two_records(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        params = init_params(cfg, RngStream(seed=4))
        _, _, records = tr.evaluate(params, cfg, [test[0], test[0]], stats)
        assert len(records) == 2 and records[0] == records[1]

    def test_empty_rejected(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        with pytest.raises(DataError):
            tr.evaluate({}, cfg, [], stats)


class _ScriptEnd(Exception):
    """fit asked for the test loss of an epoch past the end of the script."""


def _script_test_losses(monkeypatch, losses):
    """Make train_epoch a no-op and evaluate return ``losses`` in order, so
    that fit's stopping rule is all that decides how many epochs run."""
    script = iter(losses)

    def evaluate(*args, **kwargs):
        for loss in script:
            return loss, 0.0, []
        raise _ScriptEnd

    monkeypatch.setattr(tr, "train_epoch", lambda *args, **kwargs: (0.0, 0.0))
    monkeypatch.setattr(tr, "evaluate", evaluate)


def _scripted_state(patience):
    stats = data.DatasetStats(mean=np.full(3, 0.5), std=np.full(3, 0.2))
    return tr.init_state(tiny_config(), tr.TrainConfig(patience=patience, max_epochs=100),
                         stats, [f"class{k}" for k in range(5)])


def _stop_epoch(monkeypatch, losses, patience):
    """The epoch after which fit stops on these test losses, or None when
    it asks for more epochs than were scripted."""
    state = _scripted_state(patience)
    with monkeypatch.context() as patch:
        _script_test_losses(patch, losses)
        try:
            history = tr.fit(state, [], [])
        except _ScriptEnd:
            return None
    assert [r.epoch for r in history] == list(range(1, state.epoch + 1))
    return state.epoch


class TestEarlyStopping:
    def test_improving_sequence_never_stops(self, monkeypatch):
        assert _stop_epoch(monkeypatch, [1.0, 0.9, 0.8, 0.7], patience=2) is None

    def test_stops_after_exactly_patience_bad_epochs(self, monkeypatch):
        for k in range(1, 12):
            stop = _stop_epoch(monkeypatch, [1.0] + [1.0] * k, patience=10)
            assert stop == (11 if k >= 10 else None), f"k={k}"

    def test_improvement_resets_counter(self, monkeypatch):
        assert _stop_epoch(monkeypatch, [1.0, 1.1, 0.9], patience=2) is None
        assert _stop_epoch(monkeypatch, [1.0, 1.1, 1.2], patience=2) == 3
        assert _stop_epoch(monkeypatch, [1.0, 1.1, 0.9, 1.0, 0.95], patience=2) == 5

    def test_equal_loss_is_not_improvement(self, monkeypatch):
        assert _stop_epoch(monkeypatch, [1.0, 1.0], patience=1) == 2

    def test_bad_patience_rejected(self):
        with pytest.raises(ConfigError, match="patience"):
            tr.TrainConfig(patience=0)

    def test_stop_epoch_survives_a_resume(self, monkeypatch, tmp_path):
        flat = [1.0] * 8
        _script_test_losses(monkeypatch, flat)
        straight = _scripted_state(patience=3)
        tr.fit(straight, [], [])
        assert (straight.epoch, straight.best_epoch) == (4, 1)

        _script_test_losses(monkeypatch, flat)
        part = _scripted_state(patience=3)
        tr.fit(part, [], [], max_epochs=2)
        tr.save_state(part, tmp_path / "mid.ckpt")
        resumed = tr.load_state(tmp_path / "mid.ckpt")
        history = tr.fit(resumed, [], [])
        assert [r.epoch for r in history] == [3, 4]
        assert resumed.best_epoch == straight.best_epoch
        assert resumed.bad_epochs == straight.bad_epochs == 3

    def test_fit_honors_patience(self, monkeypatch):
        # lr 0.3 makes the test loss bounce, so both runs stop early, and
        # the patience-2 run only after its counter was reset once
        for patience in (1, 2):
            samples, train, test, stats, cfg, tcfg, names = _synth_setup(
                per_class=4, lr=0.3, patience=patience, max_epochs=8)
            state = tr.init_state(cfg, tcfg, stats, names)
            history = tr.fit(state, train, test)
            losses = [r.test_loss for r in history]
            assert len(history) < tcfg.max_epochs, patience
            assert history[-1].epoch == state.epoch
            # the best loss came before the last `patience` epochs, and
            # none of those improved on it
            best = min(losses[:-patience])
            assert losses[state.best_epoch - 1] == state.best_test_loss == best
            assert min(losses[-patience:]) >= best
            # the real run stops where a script of its own test losses does
            assert _stop_epoch(monkeypatch, losses, patience) == len(history)


class TestPersistence:
    def test_class_count_must_match_the_model(self):
        # two names for a five-class head wrote a file that load_state refused
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        with pytest.raises(DataError, match="2 class names"):
            tr.init_state(cfg, tcfg, stats, ["a", "b"])

    @pytest.mark.parametrize("name, at", [
        ("a,b", 2), ("", 2), (" lead", 0), ("trail ", 4), ("a\nb", 2), ("a\r\nb", 2),
        ("a\x1cb", 2), ("a\u2028b", 2), ("a\nb = c", 2)])
    def test_class_name_that_the_metadata_cannot_return_rejected(self, name, at):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        names[at] = name
        with pytest.raises(DataError, match="would not survive a checkpoint"):
            tr.init_state(cfg, tcfg, stats, names)

    def test_class_names_the_metadata_returns_are_kept(self, tmp_path):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        names = ["a b", "=", " #", "c\td ", "é"]
        tr.save_state(tr.init_state(cfg, tcfg, stats, names), tmp_path / "s.ckpt")
        assert tr.load_state(tmp_path / "s.ckpt").class_names == names

    def test_round_trip_preserves_everything(self, tmp_path):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        tr.fit(state, train, test, max_epochs=1)
        path = tmp_path / "state.ckpt"
        tr.save_state(state, path)
        back = tr.load_state(path)
        assert back.model_cfg == state.model_cfg
        assert back.train_cfg == state.train_cfg
        assert back.epoch == state.epoch
        assert back.adam.t == state.adam.t
        assert back.best_test_loss == state.best_test_loss
        assert back.best_epoch == state.best_epoch
        assert back.bad_epochs == state.bad_epochs
        assert back.class_names == names
        assert np.array_equal(back.stats.mean, state.stats.mean)
        assert np.array_equal(back.stats.std, state.stats.std)
        for n, p in state.params.items():
            assert np.array_equal(back.params[n].data, p.data)
            assert np.array_equal(back.adam.m[n], state.adam.m[n])
            assert np.array_equal(back.adam.v[n], state.adam.v[n])

    def test_reloaded_state_evaluates_bitwise_identically(self, tmp_path):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        tr.fit(state, train, test, max_epochs=1)
        path = tmp_path / "state.ckpt"
        tr.save_state(state, path)
        back = tr.load_state(path)
        l1, a1, r1 = tr.evaluate(state.params, cfg, test, stats)
        l2, a2, r2 = tr.evaluate(back.params, back.model_cfg, test, back.stats)
        assert l1 == l2 and a1 == a2 and r1 == r2

    def test_missing_moments_detected(self, tmp_path):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        path = tmp_path / "broken.ckpt"
        metadata = {**to_kv(cfg, "model."), **to_kv(tcfg, "train.")}
        metadata.update({"trainer.epoch": "0", "trainer.adam_t": "0",
                         "trainer.best_test_loss": "inf", "trainer.best_epoch": "0",
                         "trainer.bad_epochs": "0",
                         "stats.mean": "0.5,0.5,0.5", "stats.std": "0.2,0.2,0.2",
                         "data.class_names": ",".join(names)})
        ckpt.save_checkpoint(path, metadata, {n: p.data for n, p in state.params.items()})
        with pytest.raises(CheckpointError, match="moments"):
            tr.load_state(path)

    @pytest.mark.parametrize("name,change", [
        ("gat.w", "drop"), ("gat.w", "reshape"), ("extra.w", "add"), ("m.extra.w", "add"),
        # the attention key biases, which files written before their removal hold
        ("enc0.attn.bk", "add"), ("v.cross.attn.bk", "add")])
    def test_params_not_matching_the_config_rejected_on_load(self, tmp_path, name, change):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        path = tmp_path / "state.ckpt"
        tr.save_state(state, path)
        metadata, arrays = ckpt.load_checkpoint(path)
        if change == "drop":
            for key in (name, f"m.{name}", f"v.{name}"):
                del arrays[key]
        elif change == "reshape":
            arrays[name] = arrays[name].reshape(-1)
        else:
            arrays[name] = np.zeros(3)
        ckpt.save_checkpoint(path, metadata, arrays)
        with pytest.raises(CheckpointError, match=name.replace(".", r"\.")):
            tr.load_state(path)

    @pytest.mark.parametrize("key,value", [
        ("trainer.adam_t", None), ("trainer.epoch", "two"), ("model.embed_dim", "7"),
        ("data.synth_per_class", "0"), ("data.synth_per_class", "eight")])
    def test_bad_metadata_rejected_on_load(self, tmp_path, key, value):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        path = tmp_path / "state.ckpt"
        tr.save_state(tr.init_state(cfg, tcfg, stats, names), path)
        metadata, arrays = ckpt.load_checkpoint(path)
        if value is None:
            del metadata[key]
        else:
            metadata[key] = value
        ckpt.save_checkpoint(path, metadata, arrays)
        with pytest.raises(CheckpointError, match="metadata"):
            tr.load_state(path)

    # table: whether the array is a parameter or one of its moments
    @pytest.mark.parametrize("table, key, value", [
        ("params", "gat.w", np.nan), ("moments", "m.gat.w", np.inf),
        ("moments", "v.gat.w", -1e-300)])
    def test_non_finite_or_negative_second_moment_rejected_on_load(self, tmp_path, table,
                                                                   key, value):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        path = tmp_path / "state.ckpt"
        tr.save_state(tr.init_state(cfg, tcfg, stats, names), path)
        metadata, arrays = ckpt.load_checkpoint(path)
        arrays[key].flat[0] = value
        ckpt.save_checkpoint(path, metadata, arrays)
        with pytest.raises(CheckpointError, match="'gat.w' or its optimizer moments hold"):
            tr.load_state(path)

    @pytest.mark.parametrize("array, value", [
        ("param", np.nan), ("m", np.inf), ("v", -1e-300)])
    def test_state_that_load_would_reject_is_not_written(self, tmp_path, array, value):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        arrays = {"param": state.params["gat.w"].data, "m": state.adam.m["gat.w"],
                  "v": state.adam.v["gat.w"]}
        arrays[array].flat[0] = value
        with pytest.raises(CheckpointError, match="'gat.w' or its optimizer moments hold"):
            tr.save_state(state, tmp_path / "state.ckpt")
        assert list(tmp_path.iterdir()) == []  # no checkpoint and no temp file

    def _with_trainer_metadata(self, tmp_path, **values):
        """A tiny untrained checkpoint whose ``trainer.*`` keys are
        overridden by ``values``; returns its path."""
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        path = tmp_path / "state.ckpt"
        tr.save_state(tr.init_state(cfg, tcfg, stats, names), path)
        metadata, arrays = ckpt.load_checkpoint(path)
        metadata.update({f"trainer.{k}": str(v) for k, v in values.items()})
        ckpt.save_checkpoint(path, metadata, arrays)
        return path

    # adam_t = -1 loaded, and fit then stopped in adam_step with a ContractError
    @pytest.mark.parametrize("values", [
        {"adam_t": -1}, {"epoch": -5}, {"best_epoch": -1}, {"bad_epochs": -2}],
        ids=["adam_t", "epoch", "best_epoch", "bad_epochs"])
    def test_negative_counter_rejected_on_load(self, tmp_path, values):
        path = self._with_trainer_metadata(tmp_path, **values)
        with pytest.raises(CheckpointError, match="trainer counters"):
            tr.load_state(path)

    @pytest.mark.parametrize("values", [
        {"epoch": 0, "best_epoch": 9}, {"epoch": 2, "bad_epochs": 3},
        {"epoch": 4, "best_epoch": 5, "bad_epochs": 0}],
        ids=["best_epoch", "bad_epochs", "best_epoch_by_one"])
    def test_counter_above_the_epoch_rejected_on_load(self, tmp_path, values):
        path = self._with_trainer_metadata(tmp_path, **values)
        with pytest.raises(CheckpointError, match="trainer counters"):
            tr.load_state(path)

    @pytest.mark.parametrize("loss", ["nan", "-0.5", "-inf"])
    def test_nan_or_negative_best_loss_rejected_on_load(self, tmp_path, loss):
        # a NaN best loss loaded, and no later epoch could ever beat it
        path = self._with_trainer_metadata(tmp_path, best_test_loss=loss)
        with pytest.raises(CheckpointError, match="trainer counters"):
            tr.load_state(path)

    @pytest.mark.parametrize("values", [
        {"epoch": 3, "best_epoch": 3, "bad_epochs": 3, "best_test_loss": "0.0"},
        {"epoch": 2, "best_epoch": 0, "bad_epochs": 2, "best_test_loss": "inf"}])
    def test_counters_at_their_bounds_load(self, tmp_path, values):
        state = tr.load_state(self._with_trainer_metadata(tmp_path, adam_t=0, **values))
        assert (state.epoch, state.best_epoch, state.bad_epochs, state.adam.t) == \
            (values["epoch"], values["best_epoch"], values["bad_epochs"], 0)
        assert state.best_test_loss == float(values["best_test_loss"])

    # best epoch 1 with no best loss loaded, and resumed as if epoch 1 had
    # set a best that any finite test loss would then beat
    @pytest.mark.parametrize("values", [
        {"epoch": 1, "best_epoch": 1, "best_test_loss": "inf"},
        {"epoch": 1, "best_epoch": 0, "bad_epochs": 1, "best_test_loss": "1.5"}],
        ids=["best_epoch_without_a_loss", "loss_without_a_best_epoch"])
    def test_best_epoch_and_best_loss_that_disagree_rejected_on_load(self, tmp_path,
                                                                      values):
        path = self._with_trainer_metadata(tmp_path, **values)
        with pytest.raises(CheckpointError, match="best_epoch 0 exactly when"):
            tr.load_state(path)

    def test_config_kv_round_trip(self):
        cfg = tiny_config(dropout_p=0.25)
        assert from_kv(ModelConfig, to_kv(cfg, "model."), "model.") == cfg
        tcfg = tr.TrainConfig(learning_rate=2.5e-3, batch_size=4, seed=99)
        assert from_kv(tr.TrainConfig, to_kv(tcfg, "train."), "train.") == tcfg

    def test_missing_keys_fall_back_to_defaults(self):
        cfg = from_kv(ModelConfig, {"model.image_size": "32",
                                    "model.patch_size": "16",
                                    "model.embed_dim": "8",
                                    "model.num_heads": "2",
                                    "model.num_encoder_layers": "1",
                                    "model.cnn_channels": "4",
                                    "model.mlp_ratio": "2.0"}, "model.")
        assert cfg.image_size == 32 and cfg.num_classes == 5
        assert cfg.dropout_p == 0.1  # default


class TestResume:
    def test_resumed_run_matches_straight_run_bitwise(self, tmp_path):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()

        def fresh():
            return tr.init_state(cfg, tcfg, stats, names)

        straight = fresh()
        h_straight = tr.fit(straight, train, test, max_epochs=2)

        part = fresh()
        tr.fit(part, train, test, max_epochs=1)
        path = tmp_path / "mid.ckpt"
        tr.save_state(part, path)
        resumed = tr.load_state(path)
        h_resumed = tr.fit(resumed, train, test, max_epochs=2)

        assert len(h_resumed) == 1
        assert resumed.adam.t == straight.adam.t == 4  # 2 epochs of 2 steps
        assert h_resumed[0].train_loss == h_straight[1].train_loss
        assert h_resumed[0].test_loss == h_straight[1].test_loss
        for n in straight.params:
            assert np.array_equal(straight.params[n].data, resumed.params[n].data)
            assert np.array_equal(straight.adam.m[n], resumed.adam.m[n])
            assert np.array_equal(straight.adam.v[n], resumed.adam.v[n])

    @pytest.mark.parametrize("adam_t", ["0", "3"])
    def test_resume_with_an_adam_count_off_its_epochs_refused(self, tmp_path, adam_t):
        # edited to adam_t = 0, this file resumed with Adam's bias correction
        # restarted: train loss 1.7091812439732132, where the straight run
        # gives 1.7129965778240324
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        tr.fit(state, train, test, max_epochs=1)
        path = tmp_path / "mid.ckpt"
        tr.save_state(state, path)
        metadata, arrays = ckpt.load_checkpoint(path)
        metadata["trainer.adam_t"] = adam_t
        ckpt.save_checkpoint(path, metadata, arrays)
        edited = tr.load_state(path)
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ContractError, match=f"Adam step count {adam_t} does not match "
                                                f"1 epochs of 2 steps"):
            tr.fit(edited, train, test, out_dir=out, max_epochs=2)
        assert edited.epoch == 1 and os.listdir(out) == []

    def test_fit_writes_best_and_last(self, tmp_path):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        tr.fit(state, train, test,
               out_dir=tmp_path, max_epochs=2)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()
        last = tr.load_state(tmp_path / "last.ckpt")
        assert last.epoch == 2
        best = tr.load_state(tmp_path / "best.ckpt")
        assert best.best_test_loss == state.best_test_loss

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fit_stops_on_a_non_finite_loss_before_checkpointing(self, tmp_path):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup(lr=1e300)
        state = tr.init_state(cfg, tcfg, stats, names)
        with pytest.raises(DivergenceError, match="epoch 1"):
            tr.fit(state, train, test, out_dir=tmp_path)
        assert state.epoch == 0 and state.best_epoch == 0
        assert os.listdir(tmp_path) == []


class _AdamReached(Exception):
    pass


class TestDivergenceGuard:
    def _first_step_gradients(self, monkeypatch):
        """The summed gradients that the first step of a tiny epoch hands to
        Adam, read by stopping the step there."""
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        grads = []

        def stop(params, adam, train_cfg):
            grads.extend(p.grad for p in params.values() if p.grad is not None)
            raise _AdamReached

        monkeypatch.setattr(tr, "adam_step", stop)
        step = lambda: tr.train_epoch(state.params, cfg, tcfg, train, stats, data.train_policy(32),
                                      state.adam, 0)
        with pytest.raises(_AdamReached):
            step()
        return grads, step

    def test_the_bound_is_on_the_global_l2_norm(self, monkeypatch):
        grads, step = self._first_step_gradients(monkeypatch)
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
        assert 0.1 < norm < 100.0
        monkeypatch.setattr(tr, "MAX_GRAD_NORM", norm * (1 + 1e-9))
        with pytest.raises(_AdamReached):
            step()
        monkeypatch.setattr(tr, "MAX_GRAD_NORM", norm * (1 - 1e-9))
        with pytest.raises(DivergenceError, match="epoch 1: gradient norm"):
            step()

    def test_a_tripped_guard_leaves_parameters_and_moments_alone(self, monkeypatch):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        before = [(p.data.copy(), state.adam.m[n].copy(), state.adam.v[n].copy())
                  for n, p in state.params.items()]
        monkeypatch.setattr(tr, "MAX_GRAD_NORM", 0.0)
        with pytest.raises(DivergenceError):
            tr.train_epoch(state.params, cfg, tcfg, train, stats, data.train_policy(32), state.adam, 0)
        assert state.adam.t == 0
        for (p, m, v), (n, param) in zip(before, state.params.items()):
            assert np.array_equal(p, param.data)
            assert np.array_equal(m, state.adam.m[n]) and np.array_equal(v, state.adam.v[n])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_gradient_trips_the_guard(self):
        samples, train, test, stats, cfg, tcfg, names = _synth_setup()
        state = tr.init_state(cfg, tcfg, stats, names)
        state.params["head.w"].data[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="gradient norm nan"):
            tr.train_epoch(state.params, cfg, tcfg, train, stats, data.train_policy(32), state.adam, 0)


class TestHistoryCsv:
    def _history(self):
        return [tr.EpochRecord(1, 1.5, 0.3, 1.4, 0.35),
                tr.EpochRecord(2, 1.2345678901234567, 0.5, 1.1, 0.55)]

    def test_every_value_written_exactly(self, tmp_path):
        path = tmp_path / "history.csv"
        tr.write_history(path, self._history())
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [tr.EpochRecord(int(r["epoch"]), float(r["train_loss"]), float(r["train_acc"]),
                               float(r["test_loss"]), float(r["test_acc"])) for r in rows] \
            == self._history()

    def test_header_line(self, tmp_path):
        path = tmp_path / "history.csv"
        tr.write_history(path, self._history())
        first = path.read_text().splitlines()[0]
        assert first == "epoch,train_loss,train_acc,test_loss,test_acc"
