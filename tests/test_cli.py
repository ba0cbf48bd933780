"""End-to-end CLI: subcommands, config handling, exit codes, artifacts."""

import json
import sys

import numpy as np
import pytest

from minircnn import anchors
from minircnn.cli import run
from minircnn.config import RunConfig

# One tiny shared config: small images, tiny backbone/heads, few anchors.
TINY = [
    "--set", "data.image_size", "48",
    "--set", "data.max_objects", "2",
    "--set", "backbone.channels", "4,8,8,8",
    "--set", "anchors.scales", "8,16",
    "--set", "anchors.ratios", "1,2",
    "--set", "rpn.head_dim", "8",
    "--set", "detector.rois_per_image", "8",
    "--set", "proposals.pre_nms_top", "100",
    "--set", "proposals.post_nms_top_train", "50",
    "--set", "proposals.post_nms_top_test", "20",
]


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

    def test_config_echo_roundtrips(self, dataset):
        cfg = RunConfig.from_file(dataset / "config.txt")
        assert cfg.data_image_size == 48
        assert cfg.anchors_scales == (8.0, 16.0)
        assert cfg.seed == 11


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

    def test_detect_then_eval_map(self, dataset, alt_run, tmp_path):
        d_out = tmp_path / "dets"
        assert run(["detect", "--out", str(d_out), "--ckpt",
                    str(alt_run / "final.frpn"), "--data", str(dataset),
                    *TINY, "--seed", "11"]) == 0
        assert (d_out / "detections.csv").read_text() \
            .startswith("image,class,score,x1,y1,x2,y2")
        m_out = tmp_path / "map"
        assert run(["eval-map", "--out", str(m_out), "--detections",
                    str(d_out / "detections.csv"), "--manifest",
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

    @pytest.mark.parametrize("key", ["threads", "data.rescale_side",
                                     "eval.n_proposals", "anchors.stride"])
    def test_removed_config_keys_rejected(self, tmp_path, capsys, key):
        assert run(["gen-data", "--out", str(tmp_path), "--n", "1",
                    "--set", key, "1"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_usage_exit_2(self, capsys):
        assert run(["gen-data"]) == 2          # missing required --out
        assert run(["no-such-command"]) == 2
        capsys.readouterr()
