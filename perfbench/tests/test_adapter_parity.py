"""The benchmark's detect path is the CLI's: same checkpoint and images give
byte-identical detections.csv and proposals.csv rows."""
import pytest

import adapter
from minircnn import dataio
from minircnn.cli import run
from minircnn.config import RunConfig


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    ckpt_dir = tmp_path_factory.mktemp("joint")
    assert run(["gen-data", "--out", str(data), "--n", "3", "--seed", "5"]) == 0
    assert run(["train-joint", "--out", str(ckpt_dir), "--data", str(data),
                "--iters", "3", "--seed", "5"]) == 0
    m = dataio.load_manifest(data / "manifest.jsonl")
    return data, ckpt_dir / "joint.frpn", [m.load_scene(i) for i in range(len(m))]


def test_detections_match_cli(trained, tmp_path):
    data, ckpt, scenes = trained
    assert run(["detect", "--out", str(tmp_path), "--ckpt", str(ckpt),
                "--data", str(data)]) == 0
    cfg = RunConfig()
    model = adapter.restore(cfg, ckpt)
    rows = ["image,class,score,x1,y1,x2,y2"]
    for s in scenes:
        rows += adapter.detection_rows(s, adapter.detect_image(model, cfg, s)[1])
    assert len(rows) > len(scenes)
    assert ("\n".join(rows) + "\n").encode() == \
        (tmp_path / "detections.csv").read_bytes()


def test_proposals_match_cli(trained, tmp_path):
    data, ckpt, scenes = trained
    assert run(["propose", "--out", str(tmp_path), "--ckpt", str(ckpt),
                "--data", str(data), "--n", "300"]) == 0
    cfg = RunConfig()
    model = adapter.restore(cfg, ckpt, want_det=False)
    rows = ["image,rank,score,x1,y1,x2,y2"]
    for s in scenes:
        _, boxes, scores = adapter.propose(model, cfg, s,
                                           cfg.proposal_params(train=False))
        rows += adapter.proposal_rows(s, boxes, scores)
    assert len(rows) > len(scenes)
    assert ("\n".join(rows) + "\n").encode() == \
        (tmp_path / "proposals.csv").read_bytes()
