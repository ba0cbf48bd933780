"""Run configuration: every key the config accepts is one the package reads,
and the config is the one home of each default and of each key's range."""

import ast
import inspect
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

import minircnn
from minircnn import training
from minircnn.anchors import AnchorConfig
from minircnn.assignment import assign_labels, sample_minibatch
from minircnn.config import RunConfig
from minircnn.dataio import gen_synthetic, make_scene
from minircnn.detector import RoiSampleConfig, detect
from minircnn.evaluation import bench, mean_ap, voc_ap
from minircnn.nn import SgdConfig
from minircnn.onestage import train_onestage
from minircnn.rpn import (Backbone, ConvHead, LossWeights, OneStageHead,
                          ProposalParams, RpnHead)
from minircnn.training import (TrainSchedule, TrainState, alternate_4step,
                               joint_train, train)

SRC = Path(minircnn.__file__).parent


def attributes_read() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_field_is_read():
    unread = [f.name for f in fields(RunConfig) if f.name not in attributes_read()]
    assert unread == []


@pytest.mark.parametrize("key", ["rpn.head.dim", "rpn-head-dim", "rpn_head_dim",
                                 "Seed"])
def test_one_spelling_per_key(key):
    cfg = RunConfig()
    with pytest.raises(KeyError, match=f"unknown config key: {key}"):
        cfg.set_key(key, "8")
    cfg.set_key("rpn.head_dim", "8")
    assert cfg.rpn_head_dim == 8


# the defaulted parameters that name no config key
NOT_KEYS = {"AnchorConfig.stride", "train.proposals", "alternate_4step.out_dir"}


@pytest.mark.parametrize("obj", [
    AnchorConfig, LossWeights, ProposalParams, RoiSampleConfig, SgdConfig,
    TrainSchedule, train, alternate_4step, joint_train, train_onestage, Backbone,
    ConvHead, RpnHead, OneStageHead, assign_labels, sample_minibatch, detect, voc_ap,
    mean_ap, bench], ids=lambda obj: obj.__name__)
def test_library_restates_no_config_default(obj):
    """The library takes each run value as an argument; `RunConfig` alone
    holds its default."""
    defaulted = {f"{obj.__name__}.{name}"
                 for name, p in inspect.signature(obj).parameters.items()
                 if p.default is not p.empty}
    assert defaulted <= NOT_KEYS


def test_the_model_takes_its_anchor_config():
    assert inspect.signature(TrainState).parameters["anchor_cfg"].default is \
        inspect.Parameter.empty
    assert not hasattr(training, "TRAIN_PROPOSALS")


@pytest.mark.parametrize("fn", [gen_synthetic, make_scene])
def test_data_generator_defaults_are_the_configs(fn):
    """`gen_synthetic` and `make_scene` keep their defaults for library
    callers; those must be the config's."""
    params = inspect.signature(fn).parameters
    cfg = RunConfig()
    assert params["image_size"].default == cfg.data_image_size
    assert params["max_objects"].default == cfg.data_max_objects


# an out-of-range value of every key, as `--set` spells it
OUT_OF_RANGE = {
    "seed": "-1",
    "data.n_images": "0", "data.image_size": "4", "data.max_objects": "0",
    "anchors.scales": "8,0", "anchors.ratios": "-1", "backbone.channels": "4,8,8",
    "rpn.head_dim": "0", "rpn.lambda": "0", "rpn.batch": "0", "rpn.max_pos": "-1",
    "rpn.pos_iou": "1.5", "rpn.neg_iou": "-0.1", "proposals.nms_iou": "1.01",
    "proposals.pre_nms_top": "0", "proposals.post_nms_top_train": "0",
    "proposals.post_nms_top_test": "-5", "proposals.min_size": "-1",
    "detector.n_classes": "0", "detector.rois_per_image": "0",
    "detector.fg_fraction": "1", "detector.fg_iou": "0", "detector.score_thresh": "2",
    "detector.nms_iou": "-0.1", "detector.max_per_image": "-1", "train.iters": "-3",
    "train.lr": "0", "train.det_lr": "-0.01", "train.lr_drop_frac": "1.5",
    "train.momentum": "1", "train.weight_decay": "-1", "train.joint_iters": "-1",
    "eval.iou_thresh": "1.5", "ablate.iters": "0", "ablate.budgets": "5,0",
    "ablate.lambdas": "1,0", "bench.n_warmup": "-1", "bench.n_timed": "0",
}
FLOAT_KEYS = [f.name.replace("_", ".", 1) for f in fields(RunConfig)
              if "float" in str(f.type)]


def typed(name: str, text: str):
    """`text` as the value of field `name`, the way `RunConfig` stores it."""
    default = getattr(RunConfig(), name)
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in text.split(","))
    return type(default)(text)


def test_every_key_has_an_out_of_range_case():
    assert set(OUT_OF_RANGE) == set(RunConfig.keys())
    assert "anchors.scales" in FLOAT_KEYS and "train.lr" in FLOAT_KEYS


@pytest.mark.parametrize("key,value", [*OUT_OF_RANGE.items(), ("seed", str(2**64)),
                                       *((key, "nan") for key in FLOAT_KEYS)])
def test_out_of_range_names_the_key(tmp_path, key, value):
    """Rejected by `set_key`, by `from_file` naming the line, and by
    `RunConfig(...)`; NaN is outside every range. A seed is one of the 2**64
    that `Rng`, which reduces it modulo 2**64, tells apart."""
    names_key = f"{re.escape(key)}[ =]"
    with pytest.raises(ValueError, match=f"^{names_key}"):
        RunConfig().set_key(key, value)
    path = tmp_path / "run.cfg"
    path.write_text(f"seed=3\n{key}={value}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {names_key}"):
        RunConfig.from_file(path)
    with pytest.raises(ValueError, match=f"^{names_key}"):
        RunConfig(**{RunConfig.keys()[key]: typed(RunConfig.keys()[key], value)})


@pytest.mark.parametrize("key,value,bound", [
    ("data.image_size", "1025", "[5, 1024]"), ("data.image_size", "100000000", "[5, 1024]"),
    ("data.max_objects", "101", "[1, 100]"), ("data.max_objects", "1000000000", "[1, 100]")])
def test_scene_sizes_have_an_upper_bound(key, value, bound):
    with pytest.raises(ValueError, match=f"^{re.escape(key)}={value} is outside "
                                         f"{re.escape(bound)}$"):
        RunConfig().set_key(key, value)


@pytest.mark.parametrize("key,value", [("data.image_size", "5"), ("data.image_size", "1024"),
                                       ("data.max_objects", "100"), ("detector.fg_iou", "1"),
                                       ("train.momentum", "0"), ("train.lr_drop_frac", "0"),
                                       ("proposals.min_size", "0"), ("seed", "0"),
                                       ("seed", str(2**64 - 1))])
def test_range_ends_are_accepted(key, value):
    cfg = RunConfig()
    cfg.set_key(key, value)
    name = RunConfig.keys()[key]
    assert getattr(cfg, name) == typed(name, value)


def test_a_value_that_does_not_parse_names_the_key():
    with pytest.raises(ValueError, match="^data.image_size: invalid literal"):
        RunConfig().set_key("data.image_size", "abc")
    with pytest.raises(ValueError, match="^backbone.channels: invalid literal"):
        RunConfig().set_key("backbone.channels", "4,8.5,8,8")


@pytest.mark.parametrize("key,value,position", [
    ("backbone.channels", "4,8,,8,8", "entry 3 of 5"),
    ("anchors.scales", "16,32,", "entry 3 of 3"),
    ("anchors.ratios", ",1", "entry 1 of 2"),
    ("ablate.budgets", "", "entry 1 of 1"),
])
def test_an_empty_list_entry_names_the_key_and_its_position(tmp_path, key, value,
                                                             position):
    """An empty entry is an error, not a shorter list."""
    message = re.escape(f"{key}: {position} is empty")
    with pytest.raises(ValueError, match=f"^{message}$"):
        RunConfig().set_key(key, value)
    path = tmp_path / "run.cfg"
    path.write_text(f"seed=3\n\n{key}={value}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {message}$"):
        RunConfig.from_file(path)


@pytest.mark.parametrize("low,high,low_value,high_value", [
    ("rpn.neg_iou", "rpn.pos_iou", 0.8, 0.75),
    ("proposals.post_nms_top_train", "proposals.pre_nms_top", 101, 100),
    ("proposals.post_nms_top_test", "proposals.pre_nms_top", 101, 100),
])
def test_pairs_of_keys_are_checked_once_all_are_set(low, high, low_value, high_value):
    names = RunConfig.keys()
    base = RunConfig(proposals_post_nms_top_train=50, proposals_post_nms_top_test=20)
    cfg = replace(base)
    cfg.set_key(low, str(low_value))         # `set_key` checks no pair
    cfg.set_key(high, str(high_value))
    message = f"{low}={low_value} exceeds {high}={high_value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        cfg.check()
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(base, **{names[low]: low_value, names[high]: high_value})
    cfg.set_key(high, str(low_value))
    cfg.check()



def test_a_key_set_twice_names_the_file_both_lines_and_the_key(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("seed=3\n# a comment\ntrain.iters=4\nseed=5\n")
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:4: seed is set again; line 1 sets it first")):
        RunConfig.from_file(path)
    path.write_text("seed=3\ntrain.iters=4\n")
    assert RunConfig.from_file(path).seed == 3
