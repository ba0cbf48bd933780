"""Tracer bookkeeping: originals restored, outputs unchanged, and the
per-layer self times of each timed item add up to its wall time."""
import json
import statistics
from pathlib import Path

import pytest

import spans
import workloads
from minircnn import boxes, rpn, tensor, training

ROOT = Path(__file__).resolve().parents[2]
# share of an item's traced wall time that may lie outside every span
UNCOVERED_TOLERANCE = 0.05


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "N_TRAIN", 4)
    monkeypatch.setattr(workloads, "CKPT_ITERS", 2)


def test_tracer_restores_originals():
    before = (tensor.conv2d, boxes.nms_arr, training.propose_arrays,
              rpn.Backbone.forward, tensor.Tensor.backward)
    with spans.Tracer():
        assert training.propose_arrays is not before[2]
        assert training.propose_arrays is rpn.propose_arrays
    assert (tensor.conv2d, boxes.nms_arr, training.propose_arrays,
            rpn.Backbone.forward, tensor.Tensor.backward) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_cover_each_item(workload, tiny, tmp_path):
    plain = workloads.run_workload(workload, 3, 4, tmp_path, setups=1)
    with spans.Tracer() as tr:
        run = workloads.run_workload(workload, 3, 4, tmp_path, setups=1, tracer=tr)
    assert run.digest == plain.digest
    assert len(run.bounds) == len(run.item_s) == 4

    self_t = tr.self_times()
    assert min(self_t) > -1e-9
    glue = tr.item_glue(run.bounds)
    for i, (start, end) in run.bounds.items():
        mine = [k for k, item in enumerate(tr.items) if item == i]
        assert all(start <= tr.starts[k] <= tr.ends[k] <= end for k in mine)
        covered = sum(self_t[k] for k in mine)
        wall = end - start
        assert covered + glue[i] == pytest.approx(wall, rel=1e-9, abs=1e-9)
        assert covered >= (1 - UNCOVERED_TOLERANCE) * wall


def test_per_layer_names_match_benchmark_json(tiny, tmp_path):
    with spans.Tracer() as tr:
        run = workloads.run_workload("train-joint", 3, 2, tmp_path, setups=1,
                                     tracer=tr)
    values = spans.per_layer(tr, len(run.item_s), {}, run.minibatch_skipped, 0.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {k: spans.metric_units()[k] for k in values}
    assert values["boxes.nms_arr.calls"] == 1.0
    assert values["tensor.roi_pool.rois"] > 0
    for timed in ("boxes.nms_arr.ms", "tensor.conv2d.bwd_ms", "tensor.backward.self_ms",
                  "assignment.assign_labels.ms", "dataio.gen_synthetic.ms"):
        assert values[timed] > 0, timed


def test_end_to_end_names_match_benchmark_json():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_overhead_is_reported_per_item(tiny, tmp_path):
    with spans.Tracer() as tr:
        run = workloads.run_workload("train-onestage", 3, 3, tmp_path, setups=1,
                                     tracer=tr)
    values = spans.per_layer(tr, 3, {"onestage.loop.self_ms": 1.0}, 0,
                             statistics.median(run.item_s))
    assert values["onestage.loop.self_ms"] == 1.0
    assert values["tensor.roi_pool.fwd_ms"] == 0.0
    assert values["boxes.nms_arr.ms"] == 0.0
    assert values["tensor.conv2d.fwd_ms"] > 0
