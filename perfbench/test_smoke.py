"""Reduced-size smoke test of the benchmark harness.

    python3 -m pytest perfbench -q

Runs every workload at 32 px for one operation, untraced and traced, and
checks the result against ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hgtnet import checkpoint, data, metrics, model, tensor, training  # noqa: E402
from hgtnet.model import ModelConfig  # noqa: E402
from hgtnet.rng import RngStream  # noqa: E402
from hgtnet.tensor import OpRecord  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = ModelConfig(image_size=32, patch_size=8, embed_dim=16, num_heads=2,
                    num_encoder_layers=1, mlp_ratio=2.0, cnn_channels=(4, 8))

REDUCED = {
    "paper-train": lambda: workloads.PaperTrain(SMALL, batch_size=2, samples_per_op=4,
                                                pool_per_class=1),
    "tiny-fit": lambda: workloads.TinyFit(per_class=4, batch_size=8),
    "paper-eval": lambda: workloads.PaperEval(SMALL, batch_size=4, samples_per_op=5,
                                              pool_per_class=1),
}
PATCHED = (checkpoint, data, metrics, model, tensor, training, RngStream, OpRecord)


def _namespaces():
    return {owner: dict(vars(owner)) for owner in PATCHED}


def test_workload_names_match_the_spec():
    assert set(REDUCED) == {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = harness.run_workload(REDUCED[name](), seed=3, seconds=0.0, trace=False,
                                  workroot=str(tmp_path))
    assert result["correct"], result["report"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_traced_run_matches_untraced_and_leaves_no_wrapper(name, tmp_path):
    before = _namespaces()
    result = harness.run_workload(REDUCED[name](), seed=3, seconds=0.0, trace=True,
                                  workroot=str(tmp_path))
    after = _namespaces()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys()
        changed = [k for k, v in attrs.items() if after[owner][k] is not v]
        assert not changed, f"{owner.__name__}: {changed} still wrapped"

    # correct covers the bitwise comparison with the untraced run
    assert result["correct"], result["report"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    forward = values["model.forward_ms"]
    stages = sum(values[s] for s in tracer.STAGES)
    assert forward > 0
    assert 0.8 * forward <= stages <= forward
    assert values["tensor.conv2d.calls"] > 0 and values["tensor.matmul.out_mb"] > 0
    if name == "paper-eval":
        assert values["tensor.records_used_ratio"] == 0.0
        assert values["checkpoint.file_mb"] > 0 and values["checkpoint.load_ms"] > 0
        assert values["metrics.build_report_ms"] > 0
    else:
        assert 0 < values["tensor.records_used_ratio"] <= 1
        assert values["tensor.conv2d.bwd_ms"] > 0 and values["training.adam_step_ms"] > 0


def test_tracer_restores_after_an_error():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert _namespaces() == before


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "tiny-fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
