"""Outside-in tracer for the per-layer metrics.

A ``Tracer`` replaces hgtnet's public functions with timing wrappers while
its ``with`` block runs and puts every original attribute back when the
block ends.  Each name is patched in the namespace its caller looks it up
in: ``training`` binds ``apply_policy``, ``normalize``, ``resize_bilinear``,
``rotation_pretext_sample`` and ``model_forward`` into its own globals, the
model calls ops as ``tensor.<op>``, and ``relu``, ``gelu`` and ``leaky_relu``
all go through ``tensor.activation``.  Backward time per op is taken by
wrapping the returned tensor's ``op_record.backward``.

Spans are inclusive: ``model.forward_ms`` contains the stage spans, which
contain the op spans.  Ops never call other ops, so op spans do not nest.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from hgtnet import checkpoint, data, metrics, model, tensor, training
from hgtnet.rng import RngStream

MB = float(1 << 20)

OPS = ("conv2d", "max_pool2d", "matmul", "gelu", "relu", "leaky_relu", "softmax",
       "layer_norm", "dropout", "add", "mul", "transpose", "reshape", "concat",
       "take_rows", "mean")

# tensor attribute -> op name; ``activation`` is named per call by its kind
_TENSOR_OPS = {"conv2d": "conv2d", "max_pool2d": "max_pool2d", "matmul": "matmul",
               "softmax": "softmax", "layer_norm": "layer_norm", "dropout": "dropout",
               "add": "add", "mul": "mul", "transpose": "transpose",
               "reshape": "reshape", "concat": "concat", "take_rows": "take_rows",
               "tmean": "mean"}

# (module, attribute, span metric); heads_ms also covers the pooling that feeds the heads
_SPANS = (
    (training, "prepare_batch", "data.prepare_batch_ms"),
    (training, "apply_policy", "data.apply_policy_ms"),
    (training, "rotation_pretext_sample", "data.rotation_pretext_ms"),
    (training, "normalize", "data.normalize_ms"),
    (training, "resize_bilinear", "data.resize_ms"),
    (data, "resize_bilinear", "data.resize_ms"),
    (training, "model_forward", "model.forward_ms"),
    (model, "patch_embed", "model.patch_embed_ms"),
    (model, "transformer_encoder", "model.transformer_encoder_ms"),
    (model, "cnn_branch", "model.cnn_branch_ms"),
    (model, "cross_attention_fuse", "model.cross_attention_fuse_ms"),
    (model, "build_graph", "model.build_graph_ms"),
    (model, "graph_attention", "model.graph_attention_ms"),
    (model, "global_average_pool", "model.heads_ms"),
    (model, "classify_head", "model.heads_ms"),
    (model, "rotation_head", "model.heads_ms"),
    (tensor, "backward", "tensor.backward_ms"),
    (training, "adam_step", "training.adam_step_ms"),
    (training, "evaluate", "training.evaluate_ms"),
    (checkpoint, "load_checkpoint", "checkpoint.load_ms"),
    (metrics, "build_report", "metrics.build_report_ms"),
    (metrics, "write_predictions", "metrics.write_predictions_ms"),
)

STAGES = ("model.patch_embed_ms", "model.transformer_encoder_ms", "model.cnn_branch_ms",
          "model.cross_attention_fuse_ms", "model.build_graph_ms",
          "model.graph_attention_ms", "model.heads_ms")

PER_LAYER = (
    ("data.prepare_batch_ms", "ms"), ("data.apply_policy_ms", "ms"),
    ("data.rotation_pretext_ms", "ms"), ("data.normalize_ms", "ms"),
    ("data.resize_ms", "ms"), ("rng.derive_calls", "count"),
    ("model.forward_ms", "ms"),
    *((stage, "ms") for stage in STAGES),
    *((f"tensor.{op}.{kind}", unit) for op in OPS
      for kind, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"),
                         ("out_mb", "MB"))),
    ("tensor.backward_ms", "ms"), ("tensor.backward_walk_ms", "ms"),
    ("tensor.records", "count"), ("tensor.records_used_ratio", "ratio"),
    ("training.cross_entropy.fwd_ms", "ms"), ("training.cross_entropy.bwd_ms", "ms"),
    ("training.adam_step_ms", "ms"), ("training.evaluate_ms", "ms"),
    ("checkpoint.save_ms", "ms"), ("checkpoint.saves", "count"),
    ("checkpoint.load_ms", "ms"), ("checkpoint.file_mb", "MB"),
    ("metrics.build_report_ms", "ms"), ("metrics.write_predictions_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)


class Tracer:
    """Totals per metric name, collected while the ``with`` block runs."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.records = 0
        self.records_used = 0
        self.last_file_bytes = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, name, key in _SPANS:
                self._patch(owner, name, self._span(key))
            for name, op in _TENSOR_OPS.items():
                self._patch(tensor, name, self._op(lambda args, kwargs, op=op: op, "tensor."))
            self._patch(tensor, "activation", self._op(_activation_kind, "tensor."))
            self._patch(training, "cross_entropy",
                        self._op(lambda args, kwargs: "cross_entropy", "training."))
            self._patch(checkpoint, "save_checkpoint", self._save)
            self._patch(RngStream, "derive", self._count("rng.derive_calls"))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, name: str, make_wrapper) -> None:
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _span(self, key: str):
        def wrap(fn):
            def traced(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.totals[key] += (time.perf_counter() - start) * 1e3
            return traced
        return wrap

    def _count(self, key: str):
        def wrap(fn):
            def traced(*args, **kwargs):
                self.totals[key] += 1
                return fn(*args, **kwargs)
            return traced
        return wrap

    def _op(self, name_of, prefix: str):
        def wrap(fn):
            def traced(*args, **kwargs):
                start = time.perf_counter()
                out = fn(*args, **kwargs)
                elapsed = (time.perf_counter() - start) * 1e3
                base = prefix + name_of(args, kwargs)
                self.totals[base + ".fwd_ms"] += elapsed
                self.totals[base + ".calls"] += 1
                # eval-mode dropout hands back its input: nothing new was built
                if not any(out is a for a in args):
                    self.totals[base + ".out_mb"] += out.data.nbytes / MB
                    if out.op_record is not None:
                        self._time_backward(out.op_record, base + ".bwd_ms")
                return out
            return traced
        return wrap

    def _time_backward(self, record, key: str) -> None:
        self.records += 1
        inner = record.backward

        def backward(g):
            start = time.perf_counter()
            grads = inner(g)
            self.totals[key] += (time.perf_counter() - start) * 1e3
            self.records_used += 1
            return grads

        record.backward = backward

    def _save(self, fn):
        def traced(path, *args, **kwargs):
            start = time.perf_counter()
            fn(path, *args, **kwargs)
            self.totals["checkpoint.save_ms"] += (time.perf_counter() - start) * 1e3
            self.totals["checkpoint.saves"] += 1
            self.last_file_bytes = os.path.getsize(path)
        return traced

    def metrics(self, units: int) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead, per unit of
        work (step, epoch or sample); the file size and the used-records
        ratio are not divided."""
        out = {name: self.totals.get(name, 0.0) / units
               for name, _ in PER_LAYER if name != "trace.overhead_ms"}
        op_backward = sum(v for k, v in self.totals.items() if k.endswith(".bwd_ms"))
        out["tensor.backward_walk_ms"] = (self.totals["tensor.backward_ms"] - op_backward) / units
        out["tensor.records"] = self.records / units
        out["tensor.records_used_ratio"] = (self.records_used / self.records
                                            if self.records else 0.0)
        out["checkpoint.file_mb"] = self.last_file_bytes / MB
        return out


def _activation_kind(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["kind"]
