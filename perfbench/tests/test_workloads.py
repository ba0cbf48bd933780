"""Validity checks, determinism of a workload pass, and the benchmark's
refusal to run without package sources."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from minircnn.boxes import Box, ScoredBox
from minircnn.config import RunConfig

ROOT = Path(__file__).resolve().parents[2]


class _Scene:
    width = height = 128


def _det(x1, score, cls=1):
    return ScoredBox(Box(x1, 10.0, x1 + 20.0, 40.0), score, cls)


def test_check_detections_accepts_valid_output():
    assert workloads.check_detections([_det(0, 0.9), _det(100, 0.5, 3)],
                                      _Scene(), RunConfig()) == []


@pytest.mark.parametrize("dets, reason", [
    ([_det(0, 0.5), _det(0, 0.9)], "descending"),
    ([_det(120, 0.9)], "outside the image"),
    ([_det(0, 0.9, 4)], "class id"),
    ([_det(0, 0.9)] * 101, "max_per_image"),
    ([_det(float("nan"), 0.9)], "non-finite"),
])
def test_check_detections_flags(dets, reason):
    bad = workloads.check_detections(dets, _Scene(), RunConfig())
    assert any(reason in b for b in bad)


def test_check_proposals_flags_too_many():
    assert workloads.check_proposals(np.zeros((300, 4)), RunConfig()) == []
    assert workloads.check_proposals(np.zeros((301, 4)), RunConfig())
    assert workloads.check_proposals(np.full((1, 4), np.inf), RunConfig())


@pytest.mark.parametrize("workload", ["detect-300", "train-onestage"])
def test_pass_is_deterministic(workload, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "N_TRAIN", 4)
    monkeypatch.setattr(workloads, "CKPT_ITERS", 2)
    a = workloads.run_workload(workload, 9, 3, tmp_path, setups=2)
    b = workloads.run_workload(workload, 9, 3, tmp_path, setups=1)
    assert a.digest == b.digest and a.quality == b.quality
    assert len(a.setup_s) == 2 and a.failed == 0
    assert len(a.ref_s) == len(a.item_s) == 3 and min(a.ref_s) > 0
    assert not tmp_path.exists()   # scratch space removed once empty


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "detect-300",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
