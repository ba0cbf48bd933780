"""One home for each idea the heads share: the two-term loss, which alone
gathers a head's rows, the Fast R-CNN minibatch, the IoU labelling, the
sliding-window head, the RPN objective, the model object and the range of
each config key; one copy of each fact the model and its random streams
keep; one shuffled draw; one place that makes a model inference-only; one
window matrix per convolution; one row per box from every head; one UTF-8
text writer and reader; anchors as one array beside their mask; one form
per value from where it is made to where it is read; and no package name
that only tests read."""

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import minircnn
from minircnn.anchors import AnchorConfig
from minircnn.boxes import Box, ScoredBox
from minircnn.config import RunConfig
from minircnn.detector import DetectorHead, RoiSampleConfig, detector_forward
from minircnn.nn import SgdConfig
from minircnn.rng import Rng
from minircnn.rpn import LossWeights, OneStageHead, ProposalParams, RpnHead
from minircnn.tensor import Tensor
from minircnn.training import TrainSchedule, TrainState

SRC = Path(minircnn.__file__).parent


def modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}


def scopes(match) -> set[str]:
    """`module.def[.def...]` of every node that `match` accepts; just
    `module` for a node outside any def."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif match(child):
                found.add(scope)
            visit(child, inner)

    for mod, tree in modules().items():
        visit(tree, mod)
    return found


def call_scopes(name: str, bare: bool = False) -> set[str]:
    """The scopes of every call of `name`, bare or (unless `bare`) as an
    attribute."""
    return scopes(lambda n: isinstance(n, ast.Call) and (
        getattr(n.func, "id", None) == name
        or (not bare and getattr(n.func, "attr", None) == name)))


def test_loss_terms_only_in_multitask_loss():
    """The one loss takes a head's rows as the head emits them and alone
    gathers the sampled rows and each foreground row's class slice."""
    for name in ("softmax_logloss", "smooth_l1", "take_rows", "select_class"):
        assert call_scopes(name) == {"nn.multitask_loss"}, name


def test_iou_matrix_only_in_the_two_labellers_and_evaluation():
    scopes = call_scopes("iou_matrix_arr")
    assert {"assignment.assign_labels", "detector.label_boxes"} <= scopes
    assert all(s in ("assignment.assign_labels", "detector.label_boxes")
               or s.split(".")[0] in ("evaluation", "dataio") for s in scopes), scopes


def test_one_fg_bg_sampler():
    """Every head draws its minibatch rows from its labels with
    `assignment.sample_fg_bg`, the RPN through `assignment.sample_minibatch`
    and the detector and one-stage heads through `detector.sample_fast_rcnn`;
    it, the scene order and `ablate --mode no-cls` shuffle with
    `Rng.permutation`, the one shuffled draw."""
    assert call_scopes("permutation") == {"assignment.sample_fg_bg",
                                          "training.scene_order", "cli.cmd_ablate"}
    for name in ("choice", "_first_of_permutation"):
        assert not [p.name for p in SRC.glob("*.py")
                    if re.search(rf"\b{name}\b", p.read_text())], name
    assert call_scopes("sample_fg_bg") == {"assignment.sample_minibatch",
                                           "detector.sample_fast_rcnn"}
    assert call_scopes("sample_fast_rcnn") == {"detector.sample_rois", "training.steps"}
    imported = {a.name for n in ast.walk(modules()["training"])
                if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not {"sample_fg_bg", "take_rows", "select_class"} & imported


def test_one_sgd_loop():
    """Every head trains in the one loop, `training.steps`; each trainer only
    applies the step it yields."""
    loop = "for it in range(sched.total_iters)"
    assert sum(p.read_text().count(loop) for p in SRC.glob("*.py")) == 1
    assert loop in (SRC / "training.py").read_text()
    assert call_scopes("sgd_step") == {"training.train", "onestage.train_onestage"}
    assert not [p.name for p in SRC.glob("*.py") if "require_steps" in p.read_text()]


def test_the_rpn_sample_mask_is_gone():
    """A labeller returns (labels, targets) and a sampler returns rows; no
    targets object carries a mask or matched gt indices."""
    for name in ("RpnTargets", "NoLabeledAnchorsError", "sample_mask", "matched_gt",
                 "_assign_windows"):
        assert not [p.name for p in SRC.glob("*.py") if name in p.read_text()], name


def test_heads_inherit_the_conv_head():
    classes = {node.name: node for tree in modules().values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    for name in ("RpnHead", "OneStageHead"):
        node = classes[name]
        assert [getattr(b, "id", None) for b in node.bases] == ["ConvHead"]
        own = {d.name for d in node.body if isinstance(d, ast.FunctionDef)}
        assert not own & {"forward", "params"}, name


def test_rpn_objective_lives_in_loss_weights():
    """The RPN's minibatch and IoU thresholds reach the loop only inside
    `LossWeights`; the labeller and the sampler are their one reader."""
    keys = {"batch", "max_pos", "pos_iou", "neg_iou"}
    takers = set()
    classes = {}
    for mod, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if names & keys:
                    takers.add(f"{mod}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = node
    assert takers == {"assignment.assign_labels", "assignment.sample_minibatch"}

    def members(cls):
        body = classes[cls].body
        return {n.name for n in body if isinstance(n, ast.FunctionDef)} | \
               {n.target.id for n in body if isinstance(n, ast.AnnAssign)}

    assert "rpn_sampling" not in members("RunConfig")
    assert "n_cls" not in members("LossWeights")
    assert {"lam", "batch", "max_pos", "pos_iou", "neg_iou"} <= members("LossWeights")


def test_one_place_builds_and_opens_the_model():
    """The backbone and heads are made only by `TrainState._assemble`, for
    `build`, `open` and the 4-step scheme's two models; a checkpoint is read
    only by `TrainState.open`."""
    for cls in ("Backbone", "RpnHead", "DetectorHead", "OneStageHead"):
        assert call_scopes(cls) == {"training.TrainState._assemble"}, cls
    assert call_scopes("load_checkpoint") == {"training.TrainState.open"}


def test_one_train_handler():
    """The `train-*` commands share one handler, which alone saves a
    checkpoint and writes a loss log, once each."""
    calls = [node.func.id for node in ast.walk(modules()["cli"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls.count("save_state") == calls.count("write_loss_log") == 1
    assert call_scopes("save_state") == call_scopes("write_loss_log") == {"cli.cmd_train"}


def test_one_detection_chain():
    """Proposals and detections are made only by the stages `TrainState`
    defines, for either detector; `detector.detect` is the two-stage region
    stage and calls the class-wise post-process the one-stage head shares."""
    for name in ("detect", "propose_arrays", "classwise_detections"):
        scopes = call_scopes(name, bare=True)
        allowed = {"detector.detect"} if name == "classwise_detections" else set()
        assert scopes and all(s.startswith("training.TrainState.") or s in allowed
                              for s in scopes), (name, scopes)
    assert "detector.detect" in call_scopes("classwise_detections", bare=True)


def test_one_way_into_the_model():
    """An image reaches the network only through `TrainState.forward`, which
    converts it, runs the backbone once and then the head it is given."""
    assert call_scopes("image_to_input", bare=True) == {"training.TrainState.forward"}

    def backbone_calls(tree) -> int:
        return sum(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "forward"
                   and getattr(n.func.value, "attr", None) == "backbone"
                   for n in ast.walk(tree))

    state = next(n for n in ast.walk(modules()["training"])
                 if isinstance(n, ast.ClassDef) and n.name == "TrainState")
    methods = {d.name: d for d in state.body if isinstance(d, ast.FunctionDef)}
    assert backbone_calls(methods["forward"]) == 1
    assert sum(backbone_calls(tree) for tree in modules().values()) == 1
    assert not {"features", "rpn_forward"} & methods.keys()


def test_one_copy_of_each_model_fact():
    """A frozen backbone is its parameters' `requires_grad`, set once by the
    4-step scheme; the step count is the loss log's length; the checkpoint
    order of the heads is `HEADS`; a named stream is derived by `substream`."""
    assert not {"iteration", "shared_frozen"} & {f.name for f in fields(TrainState)}
    assert list(inspect.signature(Rng.__init__).parameters) == ["self", "seed"]
    rng = modules()["rng"]
    assert sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_fnv1a"
               for n in ast.walk(rng)) == 1
    params = next(n for n in ast.walk(modules()["training"])
                  if isinstance(n, ast.FunctionDef) and n.name == "params")
    assert "HEADS" in {n.id for n in ast.walk(params) if isinstance(n, ast.Name)}
    assert call_scopes("set_trainable") == {"training.alternate_4step"}


def test_one_place_makes_a_model_inference_only():
    """Outside `Tensor.__init__`, `requires_grad` is set only by the 4-step
    scheme's freeze and by `nn.restore_params`; `detector.detect` takes the
    features it is given, with no detach of its own."""
    def assigns(node) -> bool:
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            return False
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(getattr(n, "attr", None) == "requires_grad"
                   for t in targets for n in ast.walk(t))

    assert scopes(assigns) == {"tensor.Tensor.__init__", "nn.restore_params",
                               "rpn.Backbone.set_trainable"}
    assert not [p.name for p in SRC.glob("*.py") if "Tensor(features.data)" in p.read_text()]


def test_conv2d_builds_one_window_matrix():
    """conv2d's dW multiplies the column matrix its forward built: backward
    pads no input and rebuilds no window view."""
    assert not any(s.startswith("tensor.conv2d") for s in call_scopes("pad"))
    tensor = (SRC / "tensor.py").read_text()
    assert "_window_rows" not in tensor and "sliding_window_view" not in tensor


def test_heads_emit_rows():
    """Every head returns raw scores (N, C+1) and class deltas (N, C, 4), one
    row per box, so no consumer re-derives a head's layout: a softmax runs
    only where proposals and detections are ranked, and in the log-loss."""
    for name in ("anchor_rows", "objectness_probs"):
        assert not [p.name for p in SRC.glob("*.py") if name in p.read_text()], name
    assert call_scopes("softmax") == {"rpn.propose_arrays",
                                      "detector.classwise_detections",
                                      "tensor.softmax_logloss.bwd"}
    init, k, n_classes, (h, w) = Rng(0).substream("init"), 3, 2, (4, 5)
    feats = Tensor(np.ones((6, h, w), dtype=np.float32))
    for head, c in ((RpnHead(init, 6, k, 8), 1),
                    (OneStageHead(init, 6, k, n_classes, 8), n_classes)):
        cls, reg = head.forward(feats)
        assert (cls.shape, reg.shape) == ((h * w * k, c + 1), (h * w * k, c, 4))
    rois = np.array([[0.0, 0.0, 16.0, 16.0], [8.0, 8.0, 40.0, 32.0]])
    cls, reg = detector_forward(feats, rois, DetectorHead(init, 6, n_classes), 1 / 8)
    assert (cls.shape, reg.shape) == ((2, n_classes + 1), (2, n_classes, 4))


def test_the_per_caller_model_paths_are_gone():
    names = set()
    for tree in modules().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.keyword):
                names.add(node.arg)
    assert not {"one_stage_detect", "_build_models", "want_det"} & names
    assert "load" not in {d.name for tree in modules().values()
                          for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                          and c.name == "TrainState"
                          for d in c.body if isinstance(d, ast.FunctionDef)}


def test_the_typed_views_check_no_range():
    """`RunConfig` checks each key's range once; the views built from it do
    not check again, and `AnchorConfig` checks only `stride`, which is not a key."""
    for cls in (LossWeights, ProposalParams, RoiSampleConfig, SgdConfig, TrainSchedule):
        assert "__post_init__" not in vars(cls), cls.__name__
    post = next(node for node in ast.walk(modules()["anchors"])
                if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    guards = [node.test for node in ast.walk(post) if isinstance(node, ast.If)]
    raises = [node for node in ast.walk(post) if isinstance(node, ast.Raise)]
    assert len(raises) == len(guards) == 1 and "stride" in ast.unparse(guards[0])
    AnchorConfig(scales=(), ratios=(-1.0,), stride=8)
    with pytest.raises(ValueError, match="stride"):
        AnchorConfig(scales=(8.0,), ratios=(1.0,), stride=0)


def test_every_key_has_a_range():
    keys = {f.name.replace("_", ".", 1) for f in fields(RunConfig)}
    assert set(RunConfig._RANGES) == keys


def test_one_text_reader_and_writer():
    """Every text file is written by `dataio.write_lines` and read by
    `dataio.read_lines`, as UTF-8; every other file the package opens is
    binary. A detection record checks nothing of its own: the detections
    reader checks the rows `eval-map` builds records from."""
    assert call_scopes("write_text") == {"dataio.write_lines"}
    assert call_scopes("read_text") | call_scopes("read_bytes") == {"dataio.read_lines"}
    assert call_scopes("open", bare=True) == {"dataio.read_ppm", "dataio.write_ppm",
                                              "nn.load_checkpoint", "nn.save_checkpoint"}
    assert not scopes(lambda n: isinstance(n, ast.Call)
                      and getattr(n.func, "id", None) == "open"
                      and "b" not in ast.literal_eval(n.args[1]))
    for cls in (Box, ScoredBox):
        assert not {"__post_init__", "to_array"} & vars(cls).keys(), cls.__name__


def test_one_path_per_input():
    """NMS builds one pair index per prefix, for every threshold, and the
    model's per-image steps run an empty batch through the general code: the
    only branch left in them rejects a bad input."""
    boxes = (SRC / "boxes.py").read_text()
    assert boxes.count("_PairIndex(") == 1
    greedy = next(n for n in ast.walk(modules()["boxes"])
                  if isinstance(n, ast.FunctionDef) and n.name == "_greedy_keep")
    assert not [n.id for n in ast.walk(greedy)
                if isinstance(n, ast.Name) and "tiny" in n.id]
    defs = {n.name: n for tree in modules().values() for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)}
    for name in ("detector_forward", "propose_arrays", "classwise_detections"):
        branches = [n for n in ast.walk(defs[name]) if isinstance(n, (ast.If, ast.IfExp))]
        assert all(isinstance(n, ast.If) and isinstance(n.body[-1], ast.Raise)
                   for n in branches), (name, [ast.unparse(n.test) for n in branches])


def test_anchors_are_one_array():
    """An image size's anchors are one (N, 4) array, and their inside mask
    travels beside it: `anchors` defines no class to hold the two,
    `inside_mask` returns the mask and writes into nothing, and each
    labeller takes the mask."""
    tree = modules()["anchors"]
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == \
        ["AnchorConfig"]
    defs = {n.name: n for tree in modules().values() for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)}
    assert ast.unparse(defs["grid_anchors"].returns) == "np.ndarray"
    assert not [ast.unparse(n) for n in ast.walk(defs["inside_mask"])
                if isinstance(n, (ast.Attribute, ast.Subscript))
                and isinstance(n.ctx, ast.Store)]
    for name in ("assign_labels", "label_windows"):
        assert "inside" in [a.arg for a in defs[name].args.args], name


def definitions(tree: ast.Module, mod: str) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, name, node) of each module-level def, class and
    constant in `tree`, and each method, property and class constant; dunders
    and dataclass fields left out."""
    found = []

    def assigned(node, prefix):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [(f"{prefix}.{n.id}", n.id, node) for t in targets
                for n in ast.walk(t) if isinstance(n, ast.Name)]

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((f"{mod}.{node.name}", node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found += assigned(node, mod)
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    found.append((f"{mod}.{node.name}.{m.name}", m.name, m))
                elif isinstance(m, ast.Assign):
                    found += assigned(m, f"{mod}.{node.name}")
    return [d for d in found if not (d[1].startswith("__") and d[1].endswith("__"))]


def reads(tree: ast.Module):
    """(name, node) of each load by name or as an attribute, each name
    imported, and each name a `getattr` call spells out."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, n
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr, n
        elif isinstance(n, ast.ImportFrom):
            yield from ((a.name, n) for a in n.names)
        elif isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr" \
                and len(n.args) > 1 and isinstance(n.args[1], ast.Constant):
            yield n.args[1].value, n


def test_every_package_name_is_read():
    """Each name the package defines is read by the package or the benchmark
    somewhere outside its own definition; tests alone do not keep it."""
    package = modules()     # parsed once, so a read's node is one of these
    bench = SRC.parents[1] / "perfbench"
    trees = [*package.values(), *(ast.parse(p.read_text(), str(p))
                                  for p in bench.glob("*.py"))]
    read = {}
    for tree in trees:
        for name, node in reads(tree):
            read.setdefault(name, set()).add(id(node))
    unread = [q for mod, tree in package.items()
              for q, name, node in definitions(tree, mod)
              if not read.get(name, set()) - {id(n) for n in ast.walk(node)}]
    assert not unread, unread


def test_one_form_per_value():
    """A value keeps one form from where the package makes it to where it
    reads it: the detection records stay where `classwise_detections` makes
    them, a key flag's text goes to the config unparsed, the scene-row reader
    reads its columns at the writer's places, and a one-word draw is a
    Python number that no caller unwraps."""
    package = modules()
    named = {mod for mod, tree in package.items() for name, _ in reads(tree)
             if name in ("Box", "ScoredBox")}
    assert named == {"boxes", "detector"}
    defs = {n.name: n for tree in package.values() for n in ast.walk(tree)
            if isinstance(n, ast.FunctionDef)}
    flag = defs["key_flag"]
    assert "type" not in [a.arg for a in flag.args.args + flag.args.kwonlyargs]
    assert not [n for n in ast.walk(flag) if isinstance(n, ast.keyword) and n.arg == "type"]
    assert not [n for n in ast.walk(package["cli"]) if isinstance(n, ast.keyword)
                and n.arg == "type"]
    assert "atleast_1d" not in [name for name, _ in reads(package["cli"])]
    assert "index" not in [n.func.attr for n in ast.walk(defs["_read_scene_rows"])
                           if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)]
    # `permutation`'s `n <= 1` is the shuffle of at most one element, not a draw's size
    assert [ast.unparse(n) for n in ast.walk(package["rng"]) if isinstance(n, ast.Compare)
            and re.search(r"\bn\b", ast.unparse(n)) and re.search(r"\b1\b", ast.unparse(n))] \
        == ["n <= 1"]
    assert not [ast.unparse(n) for n in ast.walk(defs["make_scene"])
                if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Call)
                and ast.unparse(n.value.func).startswith("rng.")]
