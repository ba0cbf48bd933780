"""Run configuration: every key the config accepts is one the package reads,
and the config is the one home of each default."""

import ast
import inspect
from dataclasses import fields
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
