"""End-to-end CLI: subcommands, config handling, exit codes, artifacts."""

import argparse
import importlib.util
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minircnn
from minircnn import anchors, cli, training
from minircnn.cli import build_parser, run
from minircnn.config import RunConfig
from minircnn.dataio import Scene, load_manifest
from minircnn.nn import Param, load_checkpoint, save_checkpoint
from minircnn.training import TrainState


def load_identity():
    """The `tools/identity.py` module, imported as `identity` (its dataclasses
    look their module up by that name)."""
    path = Path(__file__).parents[1] / "tools" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity", path)
    tool = sys.modules["identity"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


identity = load_identity()
# One tiny shared config, the one the identity matrix runs: small images, tiny
# backbone/heads, few anchors.
TINY = identity.TINY


def written(out: Path) -> dict[str, bytes]:
    """Every file under `out`, by its path relative to `out`."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert run(["gen-data", "--out", str(d), "--n", "4", *TINY,
                "--seed", "11"]) == 0
    return d


@pytest.fixture(scope="module")
def rpn_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("rpn")
    assert run(["train-rpn", "--out", str(out), "--data", str(dataset),
                "--iters", "4", *TINY, "--seed", "11"]) == 0
    return out


@pytest.fixture(scope="module")
def alt_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("alt")
    assert run(["train-alt", "--out", str(out), "--data", str(dataset),
                "--iters", "4", *TINY, "--seed", "11"]) == 0
    return out


@pytest.fixture(scope="module")
def onestage_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("onestage")
    assert run(["train-onestage", "--out", str(out), "--data", str(dataset),
                "--iters", "4", *TINY, "--seed", "11"]) == 0
    return out


@pytest.fixture(scope="module")
def det_run(dataset, alt_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("dets")
    assert run(["detect", "--out", str(out), "--ckpt", str(alt_run / "final.frpn"),
                "--data", str(dataset), *TINY, "--seed", "11"]) == 0
    return out


class TestGenData:
    def test_artifacts(self, dataset):
        assert (dataset / "manifest.jsonl").is_file()
        assert (dataset / "config.txt").is_file()
        assert len(list(dataset.glob("images/*.ppm"))) == 4

    def test_deterministic(self, dataset, tmp_path):
        assert run(["gen-data", "--out", str(tmp_path), "--n", "4", *TINY,
                    "--seed", "11"]) == 0
        for p in sorted(dataset.glob("images/*.ppm")):
            assert (tmp_path / "images" / p.name).read_bytes() == p.read_bytes()

    def test_config_echo_roundtrips(self, dataset, tmp_path):
        cfg = RunConfig.from_file(dataset / "config.txt")
        assert cfg.data_image_size == 48
        assert cfg.anchors_scales == (8.0, 16.0)
        assert cfg.seed == 11
        cfg.write(tmp_path / "config.txt")
        assert RunConfig.from_file(tmp_path / "config.txt") == cfg
        assert (tmp_path / "config.txt").read_bytes() == \
            (dataset / "config.txt").read_bytes()


class TestTrainCommands:
    def test_train_rpn_artifacts(self, rpn_run):
        assert (rpn_run / "rpn.frpn").read_bytes()[:4] == b"FRPN"
        lines = (rpn_run / "loss.csv").read_text().strip().split("\n")
        assert lines[0].startswith("iteration,")
        assert len(lines) == 1 + 4

    def test_train_alt_artifacts(self, alt_run):
        for name in ("final.frpn", "step1.frpn", "step2.frpn", "step3.frpn",
                     "step4.frpn", "loss.csv", "config.txt"):
            assert (alt_run / name).is_file()

    def test_train_joint_smoke(self, dataset, tmp_path):
        assert run(["train-joint", "--out", str(tmp_path), "--data",
                    str(dataset), "--iters", "3", *TINY, "--seed", "11"]) == 0
        assert (tmp_path / "joint.frpn").is_file()

    def test_train_onestage_smoke(self, dataset, tmp_path):
        assert run(["train-onestage", "--out", str(tmp_path), "--data",
                    str(dataset), "--iters", "3", *TINY, "--seed", "11"]) == 0
        assert (tmp_path / "onestage.frpn").is_file()

    def test_train_rpn_deterministic(self, dataset, rpn_run, tmp_path):
        assert run(["train-rpn", "--out", str(tmp_path), "--data",
                    str(dataset), "--iters", "4", *TINY, "--seed", "11"]) == 0
        assert (tmp_path / "rpn.frpn").read_bytes() == \
            (rpn_run / "rpn.frpn").read_bytes()
        assert (tmp_path / "loss.csv").read_text() == \
            (rpn_run / "loss.csv").read_text()


class TestInferenceCommands:
    def test_propose_then_eval_recall(self, dataset, rpn_run, tmp_path):
        p_out = tmp_path / "props"
        assert run(["propose", "--out", str(p_out), "--ckpt",
                    str(rpn_run / "rpn.frpn"), "--data", str(dataset),
                    "--n", "10", *TINY, "--seed", "11"]) == 0
        csv = (p_out / "proposals.csv").read_text()
        assert csv.startswith("image,rank,score,x1,y1,x2,y2")
        r_out = tmp_path / "recall"
        assert run(["eval-recall", "--out", str(r_out), "--proposals",
                    str(p_out / "proposals.csv"), "--manifest",
                    str(dataset / "manifest.jsonl"), "--n", "10", *TINY,
                    "--seed", "11"]) == 0
        lines = (r_out / "recall.csv").read_text().strip().split("\n")
        assert lines[0] == "tau,recall,n_proposals"
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_detect_then_eval_map(self, dataset, det_run, tmp_path):
        assert (det_run / "detections.csv").read_text() \
            .startswith("image,class,score,x1,y1,x2,y2")
        m_out = tmp_path / "map"
        assert run(["eval-map", "--out", str(m_out), "--detections",
                    str(det_run / "detections.csv"), "--manifest",
                    str(dataset / "manifest.jsonl"), *TINY,
                    "--seed", "11"]) == 0
        text = (m_out / "map.csv").read_text().strip().split("\n")
        assert text[0] == "class,ap"
        assert text[-1].startswith("mAP,")

    def test_bench(self, dataset, rpn_run, alt_run, tmp_path):
        assert run(["bench", "--out", str(tmp_path), "--ckpt",
                    str(alt_run / "final.frpn"), "--data", str(dataset),
                    "--n-warmup", "0", "--n-timed", "2", *TINY,
                    "--seed", "11"]) == 0
        lines = (tmp_path / "timing.csv").read_text().strip().split("\n")
        assert lines[0] == "stage,ms"
        assert [ln.split(",")[0] for ln in lines[1:]] == \
            ["conv", "proposal", "region-wise", "total", "rate_images_per_sec"]

    def test_bench_on_data_without_images(self, alt_run, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.jsonl").write_text("")
        assert run(["bench", "--out", str(tmp_path / "out"), "--ckpt",
                    str(alt_run / "final.frpn"), "--data", str(empty), *TINY]) == 1
        assert f"{empty} holds no images" in capsys.readouterr().err
        assert not (tmp_path / "out" / "timing.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--n-timed", "0"), ("--n-warmup", "-3")])
    def test_bad_bench_count_names_the_flag(self, dataset, alt_run, tmp_path, capsys,
                                            flag, value):
        """Rejected as the config key the flag sets, before any data is read."""
        key = {"--n-timed": "bench.n_timed", "--n-warmup": "bench.n_warmup"}[flag]
        assert run(["bench", "--out", str(tmp_path / "out"), "--ckpt",
                    str(alt_run / "final.frpn"), "--data", str(dataset),
                    flag, value, *TINY, "--seed", "11"]) == 1
        assert f"error: {key}={value} is below" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,values", [
        (["ablate", "--mode", "lambda-sweep", "--lambdas", "1"], "--iters", ["0"]),
        (["ablate", "--mode", "anchor-settings"], "--iters", ["-3"]),
        (["ablate", "--mode", "no-reg"], "--n", ["0"]),
        (["eval-recall"], "--n", ["-3"]),
        (["ablate", "--mode", "n-sweep"], "--budgets", ["5", "0"]),
        (["ablate", "--mode", "lambda-sweep"], "--lambdas", ["0"]),
    ], ids=["lambda-sweep-iters", "anchor-settings-iters", "ablate-n", "eval-recall-n",
            "budgets", "lambdas"])
    def test_bad_sweep_count_names_the_flag(self, dataset, rpn_run, tmp_path, capsys,
                                            command, flag, values):
        """Rejected as the config key the flag sets, before any data is read."""
        key = {"--iters": "ablate.iters", "--n": "proposals.post_nms_top_test",
               "--budgets": "ablate.budgets", "--lambdas": "ablate.lambdas"}[flag]
        inputs = (["--proposals", str(dataset / "manifest.jsonl"), "--manifest",
                   str(dataset / "manifest.jsonl")] if command[0] == "eval-recall" else
                  ["--data", str(dataset), "--ckpt", str(rpn_run / "rpn.frpn")])
        assert run([*command, "--out", str(tmp_path / "out"), *inputs, flag, *values,
                    *TINY, "--seed", "11"]) == 1
        assert f"error: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCheckpointHeads:
    """A checkpoint opens as the heads it holds; `detect` runs either
    detector, and a command that needs a head the file lacks names it."""

    def test_detect_on_a_onestage_checkpoint(self, dataset, onestage_run, tmp_path):
        ckpt = onestage_run / "onestage.frpn"
        assert run(["detect", "--out", str(tmp_path / "dets"), "--ckpt", str(ckpt),
                    "--data", str(dataset), *TINY, "--seed", "11"]) == 0
        cfg = RunConfig.from_file(tmp_path / "dets" / "config.txt")
        state = TrainState.open(ckpt, cfg.anchor_config(), cfg.backbone_channels,
                                cfg.rpn_head_dim, cfg.detector_n_classes)
        assert state.onestage_head is not None and state.det_head is None
        m = load_manifest(dataset / "manifest.jsonl")
        want = ["image,class,score,x1,y1,x2,y2"]
        for s in (m.load_scene(i) for i in range(len(m))):
            want += [f"{s.path},{d.class_id},{d.score:.9g},{d.box.x1:.9g},"
                     f"{d.box.y1:.9g},{d.box.x2:.9g},{d.box.y2:.9g}"
                     for d in state.detect(s, cfg.proposal_params(train=False),
                                           cfg.detector_score_thresh,
                                           cfg.detector_nms_iou,
                                           cfg.detector_max_per_image)]
        assert len(want) > 1
        assert (tmp_path / "dets" / "detections.csv").read_text() == \
            "\n".join(want) + "\n"
        assert run(["eval-map", "--out", str(tmp_path / "map"), "--detections",
                    str(tmp_path / "dets" / "detections.csv"), "--manifest",
                    str(dataset / "manifest.jsonl"), *TINY, "--seed", "11"]) == 0
        assert (tmp_path / "map" / "map.csv").read_text().split("\n")[-2] \
            .startswith("mAP,")

    def test_bench_on_a_onestage_checkpoint(self, dataset, onestage_run, tmp_path):
        assert run(["bench", "--out", str(tmp_path), "--ckpt",
                    str(onestage_run / "onestage.frpn"), "--data", str(dataset),
                    "--n-warmup", "0", "--n-timed", "2", *TINY, "--seed", "11"]) == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "timing.csv").read_text().strip().split("\n")[1:]]
        assert [r[0] for r in rows] == \
            ["conv", "proposal", "region-wise", "total", "rate_images_per_sec"]
        assert all(np.isfinite(float(r[1])) and float(r[1]) >= 0 for r in rows)

    @pytest.mark.parametrize("command,ckpt,head", [
        (["detect"], "rpn/rpn.frpn", "det"),
        (["detect"], "alt/step2.frpn", "rpn"),
        (["propose"], "onestage/onestage.frpn", "rpn"),
        (["bench", "--n-warmup", "0", "--n-timed", "1"], "rpn/rpn.frpn", "det"),
        (["ablate", "--mode", "no-reg"], "onestage/onestage.frpn", "rpn"),
        (["ablate", "--mode", "no-cls"], "onestage/onestage.frpn", "rpn"),
        (["ablate", "--mode", "n-sweep"], "onestage/onestage.frpn", "rpn"),
    ], ids=["detect-rpn", "detect-step2", "propose-onestage", "bench-rpn",
            "no-reg-onestage", "no-cls-onestage", "n-sweep-onestage"])
    def test_missing_head_is_named(self, dataset, rpn_run, alt_run, onestage_run,
                                   tmp_path, capsys, command, ckpt, head):
        runs = {"rpn": rpn_run, "alt": alt_run, "onestage": onestage_run}
        run_dir, name = ckpt.split("/")
        assert run([*command, "--out", str(tmp_path), "--ckpt",
                    str(runs[run_dir] / name), "--data", str(dataset), *TINY,
                    "--seed", "11"]) == 1
        err = capsys.readouterr().err
        assert f"the model has no '{head}' head" in err and "NoneType" not in err

    @pytest.mark.parametrize("command,ckpt,key,entry", [
        ("detect", "alt/final.frpn", "detector.n_classes 2", "det.cls.w"),
        ("propose", "rpn/rpn.frpn", "rpn.head_dim 16", "rpn.trunk.w"),
        ("detect", "alt/final.frpn", "anchors.scales 8,16,32", "rpn.cls.w"),
    ], ids=["n-classes", "head-dim", "anchor-scales"])
    def test_shape_mismatch_names_the_key(self, dataset, rpn_run, alt_run, tmp_path,
                                          capsys, command, ckpt, key, entry):
        runs = {"rpn": rpn_run, "alt": alt_run}
        run_dir, name = ckpt.split("/")
        assert run([command, "--out", str(tmp_path), "--ckpt", str(runs[run_dir] / name),
                    "--data", str(dataset), *TINY, "--set", *key.split()]) == 1
        err = capsys.readouterr().err
        assert f"{runs[run_dir] / name}: shape mismatch for '{entry}'" in err
        assert f"from this run's {key.split()[0]}" in err

    @pytest.mark.parametrize("entry", ["rpn.extra.w", "fpn.w"])
    def test_entry_no_head_owns_is_named(self, dataset, rpn_run, tmp_path, capsys,
                                         entry):
        saved = load_checkpoint(rpn_run / "rpn.frpn")
        ckpt = tmp_path / "extra.frpn"
        save_checkpoint([Param(n, v) for n, v in saved.items()] +
                        [Param(entry, np.zeros(3))], ckpt)
        assert run(["propose", "--out", str(tmp_path / "p"), "--ckpt", str(ckpt),
                    "--data", str(dataset), "--n", "10", *TINY]) == 1
        assert f"{ckpt}: entry '{entry}' belongs to no head" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("damage,message", [
        ("truncate", "truncated after"), ("append", "trailing bytes"),
        # byte 14 is the first byte of the first entry's name
        ("flip-name", "entry name is not UTF-8 at byte 14")])
    def test_damaged_checkpoint_is_named(self, dataset, rpn_run, tmp_path, capsys,
                                         damage, message):
        raw = (rpn_run / "rpn.frpn").read_bytes()
        ckpt = tmp_path / "damaged.frpn"
        ckpt.write_bytes({"truncate": raw[:-7], "append": raw + b"\x00",
                          "flip-name": raw[:14] + b"\xff" + raw[15:]}[damage])
        assert run(["propose", "--out", str(tmp_path / "p"), "--ckpt", str(ckpt),
                    "--data", str(dataset), "--n", "10", *TINY]) == 1
        assert f"{ckpt}: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize("shape", [(2**31, 2**31), (2**32 - 1,) * 3])
    def test_oversized_entry_is_named(self, dataset, tmp_path, capsys, shape):
        # checked before the read: the first size overflows an index, and the
        # second cannot be allocated
        ckpt = tmp_path / "big.frpn"
        ckpt.write_bytes(identity.one_entry_checkpoint("backbone.conv1.w", shape))
        assert run(["detect", "--out", str(tmp_path / "d"), "--ckpt", str(ckpt),
                    "--data", str(dataset), *TINY]) == 1
        assert (f"{ckpt}: truncated after {ckpt.stat().st_size} bytes: entry "
                f"'backbone.conv1.w' needs {4 * math.prod(shape)} bytes, 0 are left") \
            in capsys.readouterr().err

    def test_non_finite_entry_is_named(self, dataset, alt_run, tmp_path, capsys):
        # relu maps a NaN bias to 0, so a run on it would not show it
        params = [Param(n, v) for n, v in load_checkpoint(alt_run / "final.frpn").items()]
        next(p for p in params if p.name == "backbone.conv1.b").value.data[0] = np.nan
        ckpt = tmp_path / "nan.frpn"
        save_checkpoint(params, ckpt)
        assert run(["detect", "--out", str(tmp_path / "d"), "--ckpt", str(ckpt),
                    "--data", str(dataset), *TINY, "--seed", "11"]) == 1
        assert f"{ckpt}: entry 'backbone.conv1.b' holds a non-finite value" in \
            capsys.readouterr().err


def count_calls(monkeypatch, fn) -> list:
    """Route every minircnn module's binding of `fn` through a call recorder."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "minircnn" or name.startswith("minircnn."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, recorded)
    return calls


class TestEvalRowsRejected:
    """eval-recall and eval-map reject a row they cannot use, or a header that
    is not the one `_write_scene_rows` writes, naming file:line."""

    BOTH = ("eval-recall", "eval-map")
    FLAGS = {"eval-recall": "--proposals", "eval-map": "--detections"}
    COLUMNS = {"eval-recall": "rank", "eval-map": "class"}

    @pytest.mark.parametrize("row,commands", [
        ("images/unknown.ppm,1,0.9,1,1,5,5", BOTH),
        ("{image},1,0.9,nan,1,5,5", BOTH),
        ("{image},1,0.9,1,1,5,inf", BOTH),
        ("{image},1,0.9,6,1,5,5", BOTH),
        ("{image},1,0.9,1,6,5,5", BOTH),
        ("{image},1,1.5,1,1,5,5", BOTH),
        ("{image},1,0.9,abc,1,5,5", BOTH),
        ("{image},1,0.9,1,1,5", BOTH),
        ("{image},1,0.9,1,1,5,5,5", BOTH),
        ("", BOTH),
        ("{image},9,0.9,1,1,5,5", ("eval-map",)),    # TINY holds 3 classes
        ("{image},1.0,0.9,1,1,5,5", ("eval-map",)),
    ], ids=["unknown-image", "nan", "inf", "x1>x2", "y1>y2", "score>1",
            "x1-not-a-number", "short-row", "long-row", "blank-line", "class>C",
            "class-not-an-int"])
    def test_bad_row_names_the_line(self, dataset, tmp_path, capsys, row, commands):
        image = json.loads((dataset / "manifest.jsonl").read_text()
                           .splitlines()[0])["image"]
        csv = tmp_path / "rows.csv"
        manifest = str(dataset / "manifest.jsonl")
        for command in commands:
            csv.write_text(f"image,{self.COLUMNS[command]},score,x1,y1,x2,y2\n"
                           f"{image},1,0.9,1,1,5,5\n{row.format(image=image)}\n")
            assert run([command, self.FLAGS[command], str(csv), "--manifest", manifest,
                        "--out", str(tmp_path / "out"), *TINY]) == 1, command
            assert f"{csv}:3: " in capsys.readouterr().err, command

    @pytest.mark.parametrize("command,header", [
        ("eval-map", "image,rank,score,x1,y1,x2,y2\n"),
        ("eval-recall", ""),
    ], ids=["detections-without-class", "empty-file"])
    def test_header_without_a_column_names_line_one(self, dataset, tmp_path, capsys,
                                                     command, header):
        csv = tmp_path / "rows.csv"
        csv.write_text(header)
        assert run([command, self.FLAGS[command], str(csv), "--manifest",
                    str(dataset / "manifest.jsonl"), "--out", str(tmp_path / "out"),
                    *TINY]) == 1
        assert f"error: {csv}:1: the header is not " \
               f"image,{self.COLUMNS[command]},score,x1,y1,x2,y2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", BOTH)
    def test_header_in_another_order_names_line_one(self, dataset, tmp_path, capsys,
                                                    command):
        """The columns are read at the writer's places, not looked up by name."""
        image = json.loads((dataset / "manifest.jsonl").read_text()
                           .splitlines()[0])["image"]
        csv = tmp_path / "rows.csv"
        csv.write_text(f"image,score,{self.COLUMNS[command]},x1,y1,x2,y2\n"
                       f"{image},0.9,1,1,1,5,5\n")
        assert run([command, self.FLAGS[command], str(csv), "--manifest",
                    str(dataset / "manifest.jsonl"), "--out", str(tmp_path / "out"),
                    *TINY]) == 1
        assert capsys.readouterr().err.startswith(f"error: {csv}:1: the header is not ")
        assert not (tmp_path / "out" / "config.txt").exists()

    def test_classes_above_the_evaluated_ones_rejected(self, dataset, tmp_path, capsys):
        """Ground truth of a class that eval-map would not score is an error,
        not a dropped class."""
        classes = [o["class"] for line in (dataset / "manifest.jsonl").read_text()
                   .splitlines() for o in json.loads(line)["objects"]]
        top = max(classes)
        assert top >= 2
        csv = tmp_path / "rows.csv"
        csv.write_text("image,class,score,x1,y1,x2,y2\n")
        assert run(["eval-map", "--detections", str(csv), "--manifest",
                    str(dataset / "manifest.jsonl"), "--out", str(tmp_path / "out"),
                    *TINY, "--set", "detector.n_classes", str(top - 1)]) == 1
        assert f"class {top} is outside the head's classes 1..{top - 1}" in \
            capsys.readouterr().err
        assert not (tmp_path / "out" / "map.csv").exists()


class TestSceneRows:
    """`propose` and `detect` write their rows with `_write_scene_rows`, and
    `eval-recall` and `eval-map` read them with `_read_scene_rows`."""

    @pytest.mark.parametrize("column,n_classes", [("rank", None), ("class", 3)])
    def test_rows_read_back_as_written(self, tmp_path, column, n_classes):
        """Byte for byte, with an image path that is not ASCII."""
        blank = np.zeros((8, 8, 3), dtype=np.uint8)
        scenes = [Scene(blank, np.zeros((0, 4)), np.zeros(0, dtype=np.int64), path=p)
                  for p in ("images/a.ppm", "images/\u00e9t\u00e9.ppm")]
        keys = (0, 0, 1) if column == "rank" else (1, 2, 3)
        rows = [[((1.5, 2.0, 3.25, 4.0), 0.875, keys[0])],
                [((0.0, 0.0, 1e-10, 7.0), 0.5, keys[1]),
                 ((2.0, 2.0, 5.0, 5.0), 0.25, keys[2])]]
        path = tmp_path / "rows.csv"
        cli._write_scene_rows(path, column, scenes, rows)
        assert path.read_bytes() == (
            f"image,{column},score,x1,y1,x2,y2\n"
            f"images/a.ppm,{keys[0]},0.875,1.5,2,3.25,4\n"
            f"images/\u00e9t\u00e9.ppm,{keys[1]},0.5,0,0,1e-10,7\n"
            f"images/\u00e9t\u00e9.ppm,{keys[2]},0.25,2,2,5,5\n").encode("utf-8")
        back = cli._read_scene_rows(path, scenes, n_classes)
        assert back == [[(list(box), score, key) for box, score, key in group]
                        for group in rows]
        cli._write_scene_rows(tmp_path / "again.csv", column, scenes, back)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def mutate(data: bytes, op) -> bytes:
    """`data` with one mutation `op`: a byte set to any value or added, a
    truncation, or a field of a line inserted, deleted, swapped with another or set."""
    kind, *args = op
    if not data:
        return data
    if kind in ("flip", "add"):
        i = args[0] % len(data)
        return data[:i] + bytes([args[1]]) + data[i + (kind == "flip"):]
    if kind == "truncate":
        return data[:args[0] % (len(data) + 1)]
    lines = data.split(b"\n")
    line = args[0] % max(len(lines) - 1, 1)
    fields = lines[line].split(b",")
    j = args[1] % (len(fields) + (kind == "insert"))
    if kind == "insert":
        fields.insert(j, args[2])
    elif kind == "delete":
        del fields[j]
    elif kind == "swap":
        k = args[2] % len(fields)
        fields[j], fields[k] = fields[k], fields[j]
    else:
        fields[j] = args[2]
    lines[line] = b",".join(fields)
    return b"\n".join(lines)


# field texts a mutation puts in: number extremes, other columns' names, junk
FIELD_TEXTS = [b"nan", b"-nan", b"inf", b"-inf", b"+inf", b"Infinity", b"1e400", b"-1e400",
               b"1e-400", b"-0", b"0", b"1.7976931348623157e308", b"", b"abc", b"image",
               b"rank", b"class", b"score", b"x1", b"\xff"]
POS = st.integers(0, 10**6)
MUTATIONS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["flip", "add"]), POS,
              st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789.,-+eE\n\r "))),
    st.tuples(st.just("truncate"), POS),
    st.tuples(st.just("insert"), POS, POS, st.sampled_from(FIELD_TEXTS)),
    st.tuples(st.just("delete"), POS, POS),
    st.tuples(st.just("swap"), POS, POS, POS),
    st.tuples(st.just("set"), POS, POS, st.sampled_from(FIELD_TEXTS))),
    min_size=1, max_size=3)
# what Python or numpy says of a bad value, with nothing of the file's own
BARE = re.compile(r"invalid literal|could not convert|out of range|values to unpack|"
                  r"codec|object is not|argument")


class TestSceneRowsFuzz:
    """A mutated proposals or detections CSV either reads into rows that
    `_write_scene_rows` writes to a file that reads back into the same rows,
    or is a `ValueError` naming `<path>:<line>: ` and its cause."""

    SCENES = [Scene(np.zeros((8, 8, 3), dtype=np.uint8), np.zeros((0, 4)),
                    np.zeros(0, dtype=np.int64), path=f"images/00000{i}.ppm")
              for i in range(2)]

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """A proposals and a detections CSV as `propose` and `detect` write
        them: float32 scores and clipped boxes, 9 significant digits each."""
        d, rng = tmp_path_factory.mktemp("fuzz"), np.random.default_rng(0)
        written = {}
        for column, first in (("rank", 0), ("class", 1)):
            rows = []
            for _ in self.SCENES:
                xy = np.sort(rng.uniform(0, 48, (3, 2, 2)), axis=2)    # (box, axis, end)
                xy = xy.transpose(0, 2, 1).reshape(3, 4)
                scores = np.sort(rng.uniform(0, 1, 3).astype(np.float32))[::-1]
                rows.append([(box, s, first + k) for k, (box, s) in enumerate(zip(xy, scores))])
            cli._write_scene_rows(d / f"{column}.csv", column, self.SCENES, rows)
            written[column] = (d / f"{column}.csv").read_bytes()
        return d, written

    @pytest.mark.parametrize("column,n_classes", [("rank", None), ("class", 3)])
    @given(ops=MUTATIONS)
    @settings(max_examples=800, deadline=None, derandomize=True)
    def test_read_back_or_named(self, files, column, n_classes, ops):
        d, written = files
        data = written[column]
        for op in ops:
            data = mutate(data, op)
        path = d / "mutant.csv"
        path.write_bytes(data)
        try:
            rows = cli._read_scene_rows(path, self.SCENES, n_classes)
        except ValueError as exc:
            m = re.fullmatch(rf"{re.escape(str(path))}:(\d+): (.+)", str(exc), re.S)
            assert m, str(exc)
            assert 1 <= int(m[1]) <= data.count(b"\n") + 1 and not BARE.search(m[2]), m[0]
            return
        cli._write_scene_rows(d / "again.csv", column, self.SCENES, rows)
        assert cli._read_scene_rows(d / "again.csv", self.SCENES, n_classes) == rows


class TestNotUtf8:
    """A byte that is not UTF-8 in a `--config` file, a manifest or a CSV is
    an error naming file:line, whichever reader meets it."""

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"# a comment\nseed=\xff\n")
        assert run(["gen-data", "--out", str(tmp_path / "out"), "--n", "1",
                    "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")

    def test_manifest(self, dataset, alt_run, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        manifest = data / "manifest.jsonl"
        manifest.write_bytes(manifest.read_bytes() + b"\xff\n")
        assert run(["detect", "--out", str(tmp_path / "out"), "--ckpt",
                    str(alt_run / "final.frpn"), "--data", str(data), *TINY]) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}:5: ")

    def test_proposals_csv(self, dataset, tmp_path, capsys):
        csv = tmp_path / "proposals.csv"
        csv.write_bytes(b"image,rank,score,x1,y1,x2,y2\nimages/\xff.ppm,0,0.5,1,1,5,5\n")
        assert run(["eval-recall", "--proposals", str(csv), "--manifest",
                    str(dataset / "manifest.jsonl"), "--out", str(tmp_path / "out"),
                    *TINY]) == 1
        assert capsys.readouterr().err.startswith(f"error: {csv}:2: ")


class TestModelReuse:
    def test_detect_builds_anchors_once_per_image_size(self, alt_run, tmp_path,
                                                       monkeypatch):
        lines = []
        for sub, size, n in (("a", "48", "3"), ("b", "56", "2")):
            assert run(["gen-data", "--out", str(tmp_path / sub), "--n", n,
                        "--image-size", size, *TINY, "--seed", "11"]) == 0
            for line in (tmp_path / sub / "manifest.jsonl").read_text().splitlines():
                e = json.loads(line)
                e["image"] = f"{sub}/{e['image']}"
                lines.append(json.dumps(e))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        calls = count_calls(monkeypatch, anchors.grid_anchors)
        assert run(["detect", "--out", str(tmp_path / "dets"), "--ckpt",
                    str(alt_run / "final.frpn"), "--data", str(manifest),
                    *TINY, "--seed", "11"]) == 0
        assert len(calls) == 2

    def test_image_side_not_a_multiple_of_stride(self, tmp_path):
        data = tmp_path / "data"
        assert run(["gen-data", "--out", str(data), "--n", "2", *TINY,
                    "--image-size", "100", "--seed", "11"]) == 0
        assert run(["train-rpn", "--out", str(tmp_path / "rpn"), "--data",
                    str(data), "--iters", "2", *TINY, "--seed", "11"]) == 0
        assert run(["propose", "--out", str(tmp_path / "props"), "--ckpt",
                    str(tmp_path / "rpn" / "rpn.frpn"), "--data", str(data),
                    "--n", "10", *TINY, "--seed", "11"]) == 0
        rows = (tmp_path / "props" / "proposals.csv").read_text().strip().split("\n")
        assert len(rows) > 1

    @staticmethod
    def hand_made(data: Path, sides) -> Path:
        """A manifest of blank `side`x`side` PPMs with no objects, one line each."""
        (data / "images").mkdir(parents=True)
        lines = []
        for i, side in enumerate(sides):
            name = f"images/{i}.ppm"
            (data / name).write_bytes(f"P6 {side} {side} 255\n".encode()
                                      + bytes(3 * side * side))
            lines.append(json.dumps({"image": name, "width": side, "height": side,
                                     "objects": []}))
        (data / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        return data

    def test_images_smaller_than_the_stride(self, rpn_run, alt_run, tmp_path):
        data = self.hand_made(tmp_path / "data", (1, 3))
        assert run(["propose", "--out", str(tmp_path / "props"), "--ckpt",
                    str(rpn_run / "rpn.frpn"), "--data", str(data), *TINY,
                    "--seed", "11"]) == 0
        assert run(["detect", "--out", str(tmp_path / "dets"), "--ckpt",
                    str(alt_run / "final.frpn"), "--data", str(data), *TINY,
                    "--set", "detector.score_thresh", "0", "--seed", "11"]) == 0
        side = {"images/0.ppm": 1, "images/1.ppm": 3}
        for csv in ("props/proposals.csv", "dets/detections.csv"):
            rows = [r.split(",") for r in (tmp_path / csv).read_text().splitlines()[1:]]
            assert rows and all(0 <= float(v) <= side[r[0]] for r in rows for v in r[3:])

    def test_zero_sized_image_names_the_manifest_line(self, rpn_run, tmp_path, capsys):
        data = self.hand_made(tmp_path / "data", (3, 0))
        for argv in (["train-rpn", "--iters", "1"],
                     ["propose", "--ckpt", str(rpn_run / "rpn.frpn")]):
            assert run([*argv, "--out", str(tmp_path / argv[0]), "--data", str(data),
                        *TINY, "--seed", "11"]) == 1
            assert f"{data / 'manifest.jsonl'}:2: width 0 is not an integer of at " \
                   "least 1" in capsys.readouterr().err


class TestRpnSampling:
    """rpn.batch and rpn.max_pos reach every RPN minibatch draw."""

    @pytest.mark.parametrize("command", [
        ["train-rpn", "--iters", "3"],
        ["train-alt", "--iters", "3"],
        ["train-joint", "--iters", "3"],
        ["ablate", "--mode", "anchor-settings", "--n", "10", "--iters", "2"],
        ["ablate", "--mode", "lambda-sweep", "--n", "10", "--iters", "2",
         "--lambdas", "1"],
    ], ids=["train-rpn", "train-alt", "train-joint", "anchor-settings",
            "lambda-sweep"])
    def test_minibatch_size_from_config(self, dataset, tmp_path, monkeypatch,
                                        command):
        real = training.sample_minibatch
        sig = inspect.signature(real)
        drawn = []

        def spy(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            drawn.append((bound.arguments["batch"], bound.arguments["max_pos"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "sample_minibatch", spy)
        assert run([*command, "--out", str(tmp_path), "--data", str(dataset),
                    *TINY, "--set", "rpn.batch", "64", "--set", "rpn.max_pos", "32",
                    "--seed", "11"]) == 0
        assert drawn and set(drawn) == {(64, 32)}


class TestConfigEcho:
    """The config.txt a run writes reads back as the run's config."""

    def test_tuple_floats_roundtrip(self, dataset, tmp_path, monkeypatch):
        from minircnn import cli
        real, scales = cli.train, []

        def spy(scenes, state, *args, **kwargs):
            scales.append(state.anchor_cfg.scales)
            return real(scenes, state, *args, **kwargs)

        monkeypatch.setattr(cli, "train", spy)
        assert run(["ablate", "--mode", "anchor-settings", "--n", "10", "--iters",
                    "2", "--out", str(tmp_path), "--data", str(dataset), *TINY,
                    "--set", "anchors.scales", "16.1234567,32", "--seed", "11"]) == 0
        cfg = RunConfig.from_file(tmp_path / "config.txt")
        assert cfg.anchors_scales == (16.1234567, 32.0)
        assert scales[0] == (16.1234567, 32.0)

    @pytest.mark.parametrize("command,flags", [
        ("gen-data", ["--n", "3", "--image-size", "40"]),
        ("train-rpn", ["--iters", "3"]),
        ("train-alt", ["--iters", "2"]),
        ("train-joint", ["--iters", "3"]),
        ("train-onestage", ["--iters", "3"]),
        ("propose", ["--n", "7"]),
    ])
    def test_config_txt_alone_reproduces_the_run(self, dataset, rpn_run, tmp_path,
                                                 command, flags):
        inputs = {"gen-data": [],
                  "propose": ["--ckpt", str(rpn_run / "rpn.frpn"), "--data",
                              str(dataset)]}.get(command, ["--data", str(dataset)])
        first, again = tmp_path / "first", tmp_path / "again"
        assert run([command, "--out", str(first), *inputs, *TINY, *flags,
                    "--seed", "5"]) == 0
        assert run([command, "--out", str(again), *inputs, "--config",
                    str(first / "config.txt")]) == 0
        assert written(again) == written(first)

    def test_propose_keeps_post_nms_top_test(self, dataset, rpn_run, tmp_path):
        assert run(["propose", "--out", str(tmp_path), "--ckpt",
                    str(rpn_run / "rpn.frpn"), "--data", str(dataset), *TINY]) == 0
        rows = (tmp_path / "proposals.csv").read_text().strip().split("\n")[1:]
        per_image = [sum(r.startswith(f"{p.relative_to(dataset)},") for r in rows)
                     for p in sorted(dataset.glob("images/*.ppm"))]
        assert len(per_image) == 4 and 0 < max(per_image) <= 20


class TestRpnLabelThresholds:
    """rpn.pos_iou and rpn.neg_iou reach every RPN anchor labelling."""

    @pytest.mark.parametrize("command", [
        ["train-rpn", "--iters", "3"],
        ["train-alt", "--iters", "3"],
        ["train-joint", "--iters", "3"],
        ["ablate", "--mode", "anchor-settings", "--n", "10", "--iters", "2"],
        ["ablate", "--mode", "lambda-sweep", "--n", "10", "--iters", "2",
         "--lambdas", "1"],
    ], ids=["train-rpn", "train-alt", "train-joint", "anchor-settings",
            "lambda-sweep"])
    def test_thresholds_from_config(self, dataset, tmp_path, monkeypatch, command):
        real = training.assign_labels
        sig = inspect.signature(real)
        seen = []

        def spy(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append((bound.arguments["pos_iou"], bound.arguments["neg_iou"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "assign_labels", spy)
        assert run([*command, "--out", str(tmp_path), "--data", str(dataset),
                    *TINY, "--set", "rpn.pos_iou", "0.95", "--set", "rpn.neg_iou",
                    "0.05", "--seed", "11"]) == 0
        assert seen and set(seen) == {(0.95, 0.05)}

    @pytest.mark.parametrize("key,value", [("rpn.pos_iou", "1.5"),
                                           ("rpn.neg_iou", "-0.1"),
                                           ("rpn.neg_iou", "0.8")])
    def test_bad_thresholds_rejected(self, dataset, tmp_path, capsys, key, value):
        for command in ("train-rpn", "train-joint"):
            assert run([command, "--out", str(tmp_path), "--data", str(dataset),
                        "--iters", "1", *TINY, "--set", key, value]) == 1
            assert key in capsys.readouterr().err


class TestRpnMaxPosRejected:
    def test_negative_max_pos_names_the_key(self, dataset, tmp_path, capsys):
        for command in ("train-rpn", "train-alt", "train-joint"):
            assert run([command, "--out", str(tmp_path), "--data", str(dataset),
                        "--iters", "1", *TINY, "--set", "rpn.max_pos", "-1"]) == 1
            assert "rpn.max_pos" in capsys.readouterr().err


class TestRoisPerImageRejected:
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_below_one_names_the_key(self, dataset, tmp_path, capsys, value):
        for command in ("train-alt", "train-joint", "train-onestage"):
            assert run([command, "--out", str(tmp_path), "--data", str(dataset),
                        "--iters", "1", *TINY, "--set", "detector.rois_per_image",
                        value]) == 1
            assert f"detector.rois_per_image={value} is below 1" in \
                capsys.readouterr().err


class TestIouKeysRejected:
    """An IoU key outside [0, 1] fails before any work, naming the key."""

    # rpn.pos_iou and rpn.neg_iou: TestRpnLabelThresholds
    @pytest.mark.parametrize("key,value", [("proposals.nms_iou", "1.5"),
                                           ("detector.fg_iou", "1.5"),
                                           ("detector.nms_iou", "-0.1"),
                                           ("eval.iou_thresh", "1.5")])
    def test_each_command_names_the_key(self, dataset, rpn_run, alt_run, det_run,
                                        tmp_path, capsys, key, value):
        commands = [
            ["train-joint", "--data", str(dataset), "--iters", "2"],
            ["propose", "--ckpt", str(rpn_run / "rpn.frpn"), "--data", str(dataset)],
            ["detect", "--ckpt", str(alt_run / "final.frpn"), "--data", str(dataset)],
            ["eval-map", "--detections", str(det_run / "detections.csv"),
             "--manifest", str(dataset / "manifest.jsonl")],
        ]
        for command in commands:
            assert run([*command, "--out", str(tmp_path / "out"), *TINY,
                        "--set", key, value, "--seed", "11"]) == 1, command
            assert key in capsys.readouterr().err, command

    def test_config_file_error_names_the_line(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("seed=3\ndetector.fg_iou=2\n")
        assert run(["gen-data", "--out", str(tmp_path / "data"), "--n", "1",
                    "--config", str(tmp_path / "run.cfg")]) == 1
        assert "run.cfg:2: detector.fg_iou=2.0 is outside (0, 1]" in \
            capsys.readouterr().err


class TestRangesCheckedFirst:
    """A key outside its range fails when the config is read, before any data
    is loaded or any model built, naming the key."""

    @pytest.mark.parametrize("command,args,key", [
        ("train-rpn", ["--set", "train.momentum", "1.5"], "train.momentum"),
        ("train-rpn", ["--set", "train.lr_drop_frac", "1.5"], "train.lr_drop_frac"),
        ("train-rpn", ["--set", "backbone.channels", "0,8,8,8"], "backbone.channels"),
        ("train-rpn", ["--set", "rpn.head_dim", "0"], "rpn.head_dim"),
        ("gen-data", ["--set", "data.max_objects", "0"], "data.max_objects"),
        ("gen-data", ["--set", "data.image_size", "4"], "data.image_size"),
        ("gen-data", ["--set", "data.max_objects", "101"],
         "data.max_objects=101 is outside [1, 100]"),
        ("gen-data", ["--set", "data.image_size", "100000000"],
         "data.image_size=100000000 is outside [5, 1024]"),
        ("train-rpn", ["--set", "anchors.ratios", "0,1"], "anchors.ratios"),
        ("train-rpn", ["--set", "anchors.scales", ""], "anchors.scales"),
        ("train-rpn", ["--set", "rpn.batch", "0"], "rpn.batch"),
        ("train-rpn", ["--set", "train.lr", "nan"], "train.lr"),
        ("train-rpn", ["--set", "train.weight_decay", "nan"], "train.weight_decay"),
        ("train-rpn", ["--set", "rpn.lambda", "nan"], "rpn.lambda"),
        ("gen-data", ["--set", "data.image_size", "abc"], "data.image_size"),
        ("detect", ["--set", "detector.max_per_image", "-1"], "detector.max_per_image"),
        ("detect", ["--set", "detector.max_per_image", "-5"], "detector.max_per_image"),
        ("propose", ["--n", "0"], "proposals.post_nms_top_test"),
        ("propose", ["--n", "-5"], "proposals.post_nms_top_test"),
        ("propose", ["--set", "proposals.min_size", "nan"], "proposals.min_size"),
        ("detect", ["--set", "detector.score_thresh", "2"], "detector.score_thresh"),
        ("gen-data", ["--set", "train.momentum", "1.5"], "train.momentum"),
        # a model size above its bound fails in a command that builds no model
        ("gen-data", ["--set", "backbone.channels", "4,8,8,513"],
         "backbone.channels entry 513 is outside [1, 512]"),
        ("gen-data", ["--set", "rpn.head_dim", "513"], "rpn.head_dim=513 is outside [1, 512]"),
        ("gen-data", ["--set", "detector.n_classes", "81"],
         "detector.n_classes=81 is outside [1, 80]"),
    ], ids=["momentum", "lr-drop-frac", "zero-width", "head-dim", "max-objects",
            "image-size-4", "max-objects-101", "image-size-1e8", "zero-ratio", "no-scales",
            "rpn-batch", "lr-nan", "weight-decay-nan", "lambda-nan", "image-size-abc", "max-per-image-1",
            "max-per-image-5", "propose-n-0", "propose-n-5", "min-size-nan",
            "score-thresh", "gen-data-momentum", "channels-513", "head-dim-513",
            "n-classes-81"])
    def test_rejected_before_any_work(self, dataset, rpn_run, alt_run, tmp_path, capsys,
                                      command, args, key):
        inputs = {"gen-data": ["--n", "1"],
                  "train-rpn": ["--data", str(dataset), "--iters", "1"],
                  "propose": ["--ckpt", str(rpn_run / "rpn.frpn"), "--data", str(dataset)],
                  "detect": ["--ckpt", str(alt_run / "final.frpn"), "--data",
                             str(dataset)]}[command]
        out = tmp_path / "out"
        assert run([command, "--out", str(out), *inputs, *TINY, *args]) == 1
        assert f"error: {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pairs", [
        [("rpn.neg_iou", "0.8"), ("rpn.pos_iou", "0.9")],
        [("rpn.pos_iou", "0.9"), ("rpn.neg_iou", "0.8")],
    ], ids=["neg-first", "pos-first"])
    def test_pairs_of_keys_in_any_order(self, dataset, tmp_path, pairs):
        sets = [a for key, value in pairs for a in ("--set", key, value)]
        assert run(["train-rpn", "--out", str(tmp_path), "--data", str(dataset),
                    "--iters", "1", *TINY, *sets, "--seed", "11"]) == 0
        cfg = RunConfig.from_file(tmp_path / "config.txt")
        assert (cfg.rpn_neg_iou, cfg.rpn_pos_iou) == (0.8, 0.9)
        # TINY sets proposals.pre_nms_top to 100 while post_nms_top_train is
        # still 2000, and lowers post_nms_top_train only after
        assert (cfg.proposals_pre_nms_top, cfg.proposals_post_nms_top_train) == (100, 50)

    def test_pair_out_of_order_names_both(self, tmp_path, capsys):
        assert run(["gen-data", "--out", str(tmp_path / "out"), "--n", "1", *TINY,
                    "--set", "proposals.post_nms_top_test", "101"]) == 1
        assert "proposals.post_nms_top_test=101 exceeds proposals.pre_nms_top=100" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eval_recall_n_is_not_held_to_pre_nms_top(self, dataset, rpn_run, tmp_path,
                                                      capsys):
        """eval-recall ranks a CSV's rows and proposes nothing, so its N may
        exceed proposals.pre_nms_top; propose still rejects that N."""
        props, recall = tmp_path / "props", tmp_path / "recall"
        propose = ["propose", "--ckpt", str(rpn_run / "rpn.frpn"), "--data", str(dataset),
                   *TINY, "--seed", "11"]
        assert run([*propose, "--out", str(props)]) == 0
        assert run(["eval-recall", "--out", str(recall), "--proposals",
                    str(props / "proposals.csv"), "--manifest",
                    str(dataset / "manifest.jsonl"), *TINY, "--n", "300"]) == 0
        rows = (recall / "recall.csv").read_text().strip().split("\n")[1:]
        assert {r.split(",")[2] for r in rows} == {"300"}
        assert RunConfig.from_file(recall / "config.txt").proposals_post_nms_top_test == 300
        assert run([*propose, "--out", str(tmp_path / "p300"), "--n", "300"]) == 1
        assert "proposals.post_nms_top_test=300 exceeds proposals.pre_nms_top=100" in \
            capsys.readouterr().err


class TestAblate:
    @pytest.mark.parametrize("mode,args,name,header", [
        ("no-reg", ["--n", "10"], "recall_no_reg.csv", "tau,recall,n_proposals"),
        ("no-cls", ["--n", "10"], "recall_no_cls.csv", "tau,recall,n_proposals"),
        ("anchor-settings", ["--n", "10", "--iters", "2"], "anchor_settings.csv",
         "setting,recall_at_0.5,recall_at_0.7"),
        ("lambda-sweep", ["--n", "10", "--iters", "2", "--lambdas", "1", "10"],
         "lambda_sweep.csv",
         "lambda,recall_at_0.5,recall_at_0.7,final_loss_cls,final_loss_reg"),
    ])
    def test_mode_deterministic(self, dataset, rpn_run, tmp_path, mode, args, name,
                                header):
        outs = []
        for rep in ("a", "b"):
            assert run(["ablate", "--mode", mode, "--out", str(tmp_path / rep),
                        "--data", str(dataset), "--ckpt",
                        str(rpn_run / "rpn.frpn"), *args, *TINY,
                        "--seed", "11"]) == 0
            outs.append((tmp_path / rep / name).read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].decode().split("\n")[0] == header

    @pytest.mark.parametrize("mode", ["no-reg", "no-cls", "n-sweep"])
    def test_checkpoint_modes_require_ckpt(self, dataset, tmp_path, capsys, mode):
        assert run(["ablate", "--mode", mode, "--out", str(tmp_path),
                    "--data", str(dataset)]) == 2
        assert "--ckpt" in capsys.readouterr().err

    def test_n_sweep_budget_above_pre_nms_top_names_both(self, dataset, rpn_run,
                                                         tmp_path, capsys):
        # the default budgets 50 300 1000 against TINY's pre_nms_top of 100
        assert run(["ablate", "--mode", "n-sweep", "--out", str(tmp_path),
                    "--data", str(dataset), "--ckpt", str(rpn_run / "rpn.frpn"),
                    *TINY, "--seed", "11"]) == 1
        assert "ablate.budgets entry 1000 exceeds proposals.pre_nms_top=100" in \
            capsys.readouterr().err
        assert not (tmp_path / "recall_n_sweep.csv").exists()

    def test_no_reg_ranks_n_proposals(self, dataset, rpn_run, tmp_path, monkeypatch):
        """`--n` sets proposals.post_nms_top_test, which both ranks the
        proposals and is the N of the recall curve, in every mode."""
        from minircnn import cli
        real, ranked = cli.recall_curve, []

        def spy(props, gt_boxes, n):
            ranked.append(max(len(p) for p in props))
            return real(props, gt_boxes, n)

        monkeypatch.setattr(cli, "recall_curve", spy)
        assert run(["ablate", "--mode", "no-reg", "--out", str(tmp_path), "--data",
                    str(dataset), "--ckpt", str(rpn_run / "rpn.frpn"), *TINY,
                    "--n", "30", "--seed", "11"]) == 0      # TINY's own N is 20
        assert ranked == [30]
        rows = (tmp_path / "recall_no_reg.csv").read_text().strip().split("\n")[1:]
        assert {r.split(",")[2] for r in rows} == {"30"}

    def test_no_cls_samples_every_decoded_box(self, dataset, rpn_run, tmp_path,
                                              monkeypatch):
        """Without the cls layer nothing is ranked or suppressed: the boxes
        no-cls samples from are every decoded box that passes
        proposals.min_size, although TINY's anchors overlap above the 0.3
        set here."""
        from minircnn.boxes import clip_arr, decode_arr, iou_matrix_arr
        real, seen = TrainState.propose_scene, []

        def spy(state, scene, p):
            boxes, scores = real(state, scene, p)
            seen.append((state, scene, p.min_size, boxes))
            return boxes, scores

        monkeypatch.setattr(TrainState, "propose_scene", spy)
        assert run(["ablate", "--mode", "no-cls", "--out", str(tmp_path), "--data",
                    str(dataset), "--ckpt", str(rpn_run / "rpn.frpn"), *TINY,
                    "--set", "proposals.nms_iou", "0.3", "--seed", "11"]) == 0
        assert len(seen) == 4
        for state, scene, min_size, boxes in seen:
            anchors, _ = state.anchors(scene.width, scene.height)
            iou = iou_matrix_arr(anchors, anchors)
            np.fill_diagonal(iou, 0)
            assert iou.max() > 0.3
            _, _, reg = state.forward(scene, state.rpn_head)
            want = clip_arr(decode_arr(reg.data, anchors), scene.width, scene.height)
            want = want[((want[:, 2:] - want[:, :2]) >= min_size).all(axis=1)]
            assert sorted(map(tuple, boxes.tolist())) == \
                sorted(map(tuple, want.tolist()))

    def test_n_sweep(self, dataset, rpn_run, tmp_path):
        assert run(["ablate", "--mode", "n-sweep", "--out", str(tmp_path),
                    "--data", str(dataset), "--ckpt",
                    str(rpn_run / "rpn.frpn"), "--budgets", "5", "10", *TINY,
                    "--seed", "11"]) == 0
        lines = (tmp_path / "recall_n_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "n,tau,recall"
        assert {ln.split(",")[0] for ln in lines[1:]} == {"5", "10"}


class TestExitCodes:
    def test_missing_data_dir_is_runtime_error(self, tmp_path):
        assert run(["train-rpn", "--out", str(tmp_path), "--data",
                    str(tmp_path / "nope"), "--iters", "1"]) == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        assert run(["gen-data", "--out", str(tmp_path), "--n", "1",
                    "--set", "no.such.key", "1"]) == 1

    @pytest.mark.parametrize("key", ["rpn.head.dim", "rpn-head-dim", "rpn_head_dim",
                                     "data.image.size"])
    def test_only_the_written_spelling_of_a_key(self, tmp_path, capsys, key):
        assert run(["gen-data", "--out", str(tmp_path), "--n", "1",
                    "--set", key, "8"]) == 1
        assert f"unknown config key: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["threads", "data.rescale_side",
                                     "eval.n_proposals", "anchors.stride"])
    def test_removed_config_keys_rejected(self, tmp_path, capsys, key):
        assert run(["gen-data", "--out", str(tmp_path), "--n", "1",
                    "--set", key, "1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("command,args,message", [
        ("train-rpn", ["--iters", "-3"], "train.iters=-3 is below 0"),
        ("train-onestage", ["--set", "train.iters", "-1"], "train.iters=-1 is below 0"),
        ("train-joint", ["--iters", "-3"], "train.joint_iters=-3 is below 0"),
        ("gen-data", ["--n", "0"], "data.n_images=0 is below 1"),
        ("train-rpn", ["--iters", "1", "--set", "proposals.min_size", "-1"],
         "proposals.min_size=-1.0 is below 0"),
    ], ids=["iters", "set-iters", "joint-iters", "n-images", "min-size"])
    def test_value_below_its_range_names_the_key(self, dataset, tmp_path, capsys,
                                                 command, args, message):
        data = [] if command == "gen-data" else ["--data", str(dataset)]
        assert run([command, "--out", str(tmp_path), *data, *TINY, *args]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "config.txt").exists()

    @pytest.mark.parametrize("command", ["missing-data", "missing-head"])
    def test_failed_run_leaves_no_config_txt(self, dataset, rpn_run, tmp_path, capsys,
                                             command):
        out = tmp_path / "out"
        argv = {"missing-data": ["train-rpn", "--data", str(tmp_path / "nope"),
                                 "--iters", "1"],
                "missing-head": ["detect", "--ckpt", str(rpn_run / "rpn.frpn"),
                                 "--data", str(dataset), *TINY]}[command]
        assert run([*argv, "--out", str(out)]) == 1
        assert "error: " in capsys.readouterr().err
        assert not (out / "config.txt").exists()

    def test_a_flag_wins_over_set(self, tmp_path):
        assert run(["gen-data", "--out", str(tmp_path), *TINY, "--set", "seed", "3",
                    "--seed", "4", "--n", "1", "--set", "data.n_images", "2"]) == 0
        cfg = RunConfig.from_file(tmp_path / "config.txt")
        assert (cfg.seed, cfg.data_n_images) == (4, 1)
        assert len(list(tmp_path.glob("images/*.ppm"))) == 1

    def test_an_empty_message_prints_the_type(self, tmp_path, capsys, monkeypatch):
        def handler(args, cfg, out):
            raise MemoryError()

        monkeypatch.setattr("minircnn.cli.cmd_gen_data", handler)
        assert run(["gen-data", "--out", str(tmp_path), "--n", "1"]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"

    @pytest.mark.parametrize("argv,key", [
        (["train-rpn", "--iters", "4.5"], "train.iters"),
        (["train-joint", "--iters", "x"], "train.joint_iters"),
        (["train-alt", "--seed", "1e3"], "seed"),
        (["ablate", "--mode", "lambda-sweep", "--lambdas", "1", "ten"], "ablate.lambdas"),
    ], ids=["iters", "joint-iters", "seed", "lambdas"])
    def test_a_flag_that_does_not_parse_names_the_key(self, dataset, tmp_path, capsys,
                                                       argv, key):
        """A key flag's text goes to the config as `--set`'s does: exit 1
        naming the key, before any work."""
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out), "--data", str(dataset), *TINY]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out.exists()

    def test_bad_usage_exit_2(self, capsys):
        assert run(["gen-data"]) == 2          # missing required --out
        assert run(["no-such-command"]) == 2
        capsys.readouterr()


class TestFailEarly:
    """Runs that could only train on nothing or on wrong labels exit 1."""

    @pytest.mark.parametrize("command,reason", [
        ("train-rpn", "no labelable anchors"),
        ("train-joint", "no labelable anchors"),
        ("train-onestage", "no labelable windows"),
    ])
    def test_every_step_skipped(self, dataset, tmp_path, capsys, caplog, command,
                                reason):
        # 64 and 128 px anchors cross the border of every 48 px image
        assert run([command, "--out", str(tmp_path), "--data", str(dataset),
                    "--iters", "2", *TINY, "--set", "anchors.scales", "64,128",
                    "--seed", "11"]) == 1
        err = capsys.readouterr().err
        assert f"error: no training step taken: all 2 iterations skipped their " \
               f"image ({reason})" in err
        skips = [r.getMessage() for r in caplog.records]
        assert len(skips) == 2 and all(m.startswith("skipping image ") and
                                       m.endswith(reason) for m in skips)
        assert not (tmp_path / "loss.csv").exists()

    @pytest.mark.parametrize("command", ["train-rpn", "train-joint"])
    def test_empty_anchor_sample_skipped(self, dataset, tmp_path, capsys, caplog,
                                         command):
        # no positive may be drawn and no anchor is negative: every image has
        # labelled anchors, and its sample is empty
        assert run([command, "--out", str(tmp_path), "--data", str(dataset),
                    "--iters", "2", *TINY, "--set", "rpn.max_pos", "0", "--set",
                    "rpn.neg_iou", "0", "--seed", "11"]) == 1
        reason = "no anchor sampled at rpn.max_pos=0"
        assert f"error: no training step taken: all 2 iterations skipped their " \
               f"image ({reason})" in capsys.readouterr().err
        skips = [r.getMessage() for r in caplog.records]
        assert len(skips) == 2 and all(m.endswith(reason) for m in skips)
        assert not (tmp_path / "loss.csv").exists()

    def with_class(self, dataset, tmp_path, cls) -> Path:
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        entry = json.loads(lines[0])
        entry["objects"][0]["class"] = cls
        manifest.write_text("\n".join([json.dumps(entry), *lines[1:]]) + "\n")
        return data

    @pytest.mark.parametrize("cls", [0, 7])
    def test_unknown_class_names_the_line(self, dataset, tmp_path, capsys, cls):
        data = self.with_class(dataset, tmp_path, cls)
        for command in ("train-joint", "train-onestage"):
            assert run([command, "--out", str(tmp_path / "out"), "--data",
                        str(data), "--iters", "2", *TINY, "--seed", "11"]) == 1
            assert f"manifest.jsonl:1: unknown class {cls}" in capsys.readouterr().err

    def test_class_above_the_head_names_the_image(self, dataset, tmp_path, capsys):
        data = self.with_class(dataset, tmp_path, 3)
        image = json.loads((data / "manifest.jsonl").read_text().splitlines()[0])
        for command in ("train-alt", "train-joint", "train-onestage"):
            assert run([command, "--out", str(tmp_path / "out"), "--data",
                        str(data), "--iters", "2", *TINY, "--set",
                        "detector.n_classes", "2", "--seed", "11"]) == 1
            assert f"image {image['image']}: class 3 is outside the head's " \
                   f"classes 1..2" in capsys.readouterr().err


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["minircnn", "minircnn.cli"])
    def test_runs_the_cli(self, tmp_path, module):
        env = dict(os.environ, PYTHONPATH=str(Path(minircnn.__file__).parents[1]))
        out = tmp_path / "data"
        done = subprocess.run([sys.executable, "-m", module, "gen-data", "--out",
                               str(out), "--n", "1", *TINY], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"wrote 1 images + manifest under {out}\n"
        assert (out / "manifest.jsonl").is_file()
        usage = subprocess.run([sys.executable, "-m", module, "gen-data"], env=env,
                               capture_output=True, text=True, timeout=120)
        assert usage.returncode == 2 and "--out" in usage.stderr


def subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestEveryRunValueIsAKey:
    # the options that name inputs, outputs or the ablation, not run values
    NOT_KEYS = {"--config", "--set", "--out", "--mode", "--data", "--ckpt",
                "--manifest", "--proposals", "--detections"}

    def test_every_option_sets_a_key_or_names_a_path(self):
        for name, p in subcommands().items():
            for a in p._actions:
                if not isinstance(a, argparse._HelpAction):
                    assert a.option_strings[0] in self.NOT_KEYS or \
                        a.dest in RunConfig.keys(), (name, a.option_strings)

    def test_the_cli_reads_no_run_value_outside_the_config(self):
        text = Path(inspect.getsourcefile(run)).read_text()
        assert not re.findall(r"args\.(?:n|iters|budgets|lambdas|n_warmup|n_timed)\b",
                              text)
        assert "must be at least" not in inspect.getsource(run)


class TestIdentityMatrix:
    """`tools/identity.py` runs every subcommand and every ablate mode."""

    def test_matrix_names_every_subcommand_and_ablate_mode(self):
        tool, choices = identity, subcommands()
        modes = next(a for a in choices["ablate"]._actions if a.dest == "mode").choices
        argvs = [case.argv for case in tool.matrix()]
        assert set(choices) <= {argv[0] for argv in argvs}
        assert set(modes) <= {argv[argv.index("--mode") + 1] for argv in argvs
                              if argv[0] == "ablate" and "--mode" in argv}

    def test_a_checkpoint_that_differs_is_shown_by_entry(self, tmp_path):
        """A differing `.frpn` file is reported per entry: how many values
        differ and the largest difference in float32 ulps, across zero too."""
        w = np.array([1.0, 2.0, 3.0, -1e-45], dtype=np.float32)
        up = w.copy()
        up[1] = np.nextafter(np.nextafter(up[1], 4), 4)
        up[3] = -up[3]
        for side, value in (("parent", w), ("tree", up)):
            (tmp_path / side).mkdir()
            save_checkpoint([Param("a.b", [0.5]), Param("a.w", value)],
                            tmp_path / side / "m.frpn")
        diffs, n_files = identity.compare({}, {}, tmp_path / "parent", tmp_path / "tree")
        assert n_files == 1
        assert diffs == [("m.frpn: differs", ["a.w: 2 of 4 values differ, by at most 2 ulp"])]

    def test_a_used_work_dir_is_unusable(self, tmp_path, capsys):
        """Status 1 means "different", so a work directory an earlier run left
        is named and reported as unusable (2) before anything runs."""
        (tmp_path / "parent").mkdir()
        assert identity.main(["--parent", "HEAD", "--work", str(tmp_path)]) == 2
        assert f"--work {tmp_path} is not an empty directory" in capsys.readouterr().err

    def test_config_txt_replays_every_command(self, tmp_path):
        """The matrix, run again with each accepted command taking its first
        run's config.txt in place of its seed, `--set`s and key flags, writes
        the same bytes; a rejected command runs again unchanged."""
        src, cases = Path(minircnn.__file__).parents[1], identity.matrix()
        first = identity.run_side(src, tmp_path / "first", cases)
        choices = subcommands()

        def replayed(case):
            options = choices[case.argv[0]]._option_string_actions
            argv, skip = [], False
            for a in case.argv:
                if a.startswith("--"):      # no value in the matrix starts so
                    skip = a in options and (a == "--set" or
                                             options[a].dest in RunConfig.keys())
                if not skip:
                    argv.append(a)
            config = tmp_path / "first" / case.name / "config.txt"
            return identity.Case(case.name, (*argv, "--config", str(config)))

        again = [replayed(c) if first[c.name].code == 0 else c for c in cases]
        assert sum("--config" in c.argv for c in again) >= 25
        second = identity.run_side(src, tmp_path / "second", again)
        diffs, n_files = identity.compare(first, second, tmp_path / "first",
                                          tmp_path / "second")
        assert n_files > 60 and diffs == []
