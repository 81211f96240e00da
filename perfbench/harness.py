"""Measurement loop: set-up, timed operations, checks and the result line.

Untraced (``trace=False``): set up ``SETUPS`` times and report the median,
then run operations until ``seconds`` have passed; the end-to-end metrics
are medians over those operations.

Traced (``trace=True``): an untraced and a traced set-up, then pairs of the
same operation, untraced on the first and traced on the second, until
``seconds`` have passed.  The traced side must reproduce every loss, score
and parameter of the untraced one bitwise; the per-layer metrics come from
it, and the tracing overhead is the difference between the two.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import PER_LAYER, Tracer

SETUPS = 3

END_TO_END = (("samples_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads()}


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that a numpy wheel bundles."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _probe_bits(run) -> bytes:
    return _bits(run.probe.values if run.probe else ())


def _param_bits(run) -> bytes:
    return b"".join(p.data.tobytes() for p in run.trainer.params.values())


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, outcomes) -> None:
        for o in outcomes:
            if o is not None:
                self.attempted += o.units
                self.failed += o.failed
                self.errors.extend(o.errors)


def run_workload(workload, seed: int, seconds: float, trace: bool, workroot: str,
                 import_s: float = 0.0) -> dict:
    """Run one workload and return the result object the benchmark prints,
    plus a ``report`` entry of human-readable lines."""
    workdir = tempfile.mkdtemp(prefix=f".perfbench-{workload.name}-", dir=workroot)
    try:
        if trace:
            return _traced(workload, seed, seconds, workdir)
        return _untraced(workload, seed, seconds, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup(workload, seed: int, workdir: str, tag: str):
    path = os.path.join(workdir, tag)
    os.mkdir(path)
    gc.collect()
    start = time.perf_counter()
    run = workload.setup(seed, path)
    return run, time.perf_counter() - start


def _untraced(workload, seed, seconds, workdir, import_s) -> dict:
    tally = Tally()
    setup_times = []
    for k in range(SETUPS):
        run = None  # free the previous set-up before building the next
        run, elapsed = _setup(workload, seed, workdir, f"setup{k}")
        setup_times.append(elapsed)
        tally.add([run.probe])
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(workload.run_op(run, len(outcomes)))
    tally.add(outcomes)
    tally.errors.extend(workload.final_checks(run))
    rates = [o.samples / o.seconds for o in outcomes]
    values = {"samples_per_s": statistics.median(rates),
              "setup_s": import_s + statistics.median(setup_times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    headline, unit = workload.headline
    op_s = statistics.median(o.seconds for o in outcomes)
    report = [f"{headline} = {op_s if unit == 's' else values['samples_per_s']:.6g} {unit} "
              f"(median of {len(outcomes)} operations, {outcomes[0].samples} samples each; "
              f"operation seconds {', '.join(f'{o.seconds:.3g}' for o in outcomes)})",
              f"setup_s = {values['setup_s']:.6g} s (imports {import_s:.3g} s + median of "
              f"{SETUPS} set-ups: {', '.join(f'{t:.3g}' for t in setup_times)})",
              f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB",
              f"failed_share = {tally.failed / tally.attempted:.6g} "
              f"({tally.failed} of {tally.attempted} operations failed)"]
    return _result(tally, {n: {"value": values[n], "unit": u} for n, u in END_TO_END}, report)


def _traced(workload, seed, seconds, workdir) -> dict:
    tally = Tally()
    plain_run, _ = _setup(workload, seed, workdir, "untraced")
    with Tracer() as setup_tracer:
        traced_run, _ = _setup(workload, seed, workdir, "traced")
    tally.add([plain_run.probe, traced_run.probe])
    if _probe_bits(plain_run) != _probe_bits(traced_run):
        tally.errors.append("traced set-up changed the step-0 loss")

    # pairs of the same operation, untraced then traced, so that the overhead
    # is taken between neighbours in time and machine drift mostly cancels
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        i = len(plain)
        plain.append(workload.run_op(plain_run, i))
        with tracer:
            traced.append(workload.run_op(traced_run, i))
        if _bits(plain[i].values) != _bits(traced[i].values):
            tally.errors.append(f"op {i}: traced outputs differ from the untraced run")
    tally.add(plain + traced)
    if _param_bits(traced_run) != _param_bits(plain_run):
        tally.errors.append("traced parameters differ from the untraced run")
    tally.errors.extend(workload.final_checks(plain_run) + workload.final_checks(traced_run))

    units = sum(o.units for o in traced)
    values = tracer.metrics(units)
    setup_values = setup_tracer.metrics(1)
    for name in values:
        if name.startswith(workload.setup_layers):
            values[name] = setup_values[name]
    values["trace.overhead_ms"] = (sum(o.seconds for o in traced)
                                   - sum(o.seconds for o in plain)) * 1e3 / units
    report = [f"traced {len(traced)} operations ({units} {workload.unit}s); "
              f"per-layer values are per {workload.unit}"
              + (f", {', '.join(workload.setup_layers)}* per set-up"
                 if workload.setup_layers else ""),
              f"trace.overhead_ms = {values['trace.overhead_ms']:.6g} ms per {workload.unit}"]
    return _result(tally, {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}, report)


def _result(tally: Tally, metrics: dict, report: list[str]) -> dict:
    return {"correct": not tally.errors and tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "report": report + [f"error: {e}" for e in tally.errors]}
