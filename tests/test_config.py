"""Run configuration: every key the config accepts is one the package reads."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import minircnn
from minircnn.config import RunConfig

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
