"""SGD with momentum + weight decay, Gaussian init, checkpoint round-trips."""

from dataclasses import replace

import numpy as np
import pytest

from minircnn.cli import _dims, run
from minircnn.config import RunConfig
from minircnn.nn import (
    GradientError,
    Param,
    SgdConfig,
    gaussian_init,
    load_checkpoint,
    multitask_loss,
    restore_params,
    save_checkpoint,
    sgd_step,
)
from minircnn.rng import Rng
from minircnn.rpn import Backbone
from minircnn.tensor import Tensor
from minircnn.training import TrainState, save_state

from defaults import CFG
from test_cli import TINY


def make_param(name, value, grad):
    p = Param(name, np.asarray(value, dtype=np.float32))
    p.value.grad = np.asarray(grad, dtype=np.float32)
    return p


class TestSgdStep:
    def test_momentum_zero_collapses(self):
        p = make_param("w", [1.0, 2.0], [0.5, -0.5])
        sgd_step([p], SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.01))
        expect = np.array([1.0, 2.0]) - 0.1 * (np.array([0.5, -0.5])
                                               + 0.01 * np.array([1.0, 2.0]))
        np.testing.assert_allclose(p.value.data, expect.astype(np.float32),
                                   rtol=1e-6)

    def test_zero_grad_decays_velocity(self):
        p = make_param("w", [1.0], [0.0])
        p.velocity[:] = 2.0
        sgd_step([p], SgdConfig(lr=0.1, momentum=0.9, weight_decay=0.0))
        np.testing.assert_allclose(p.velocity, [1.8], rtol=1e-6)
        np.testing.assert_allclose(p.value.data, [1.0 - 0.1 * 1.8], rtol=1e-6)

    def test_two_step_hand_unrolled(self):
        lr, m, wd = 0.1, 0.9, 0.0005
        w, v = 1.0, 0.0
        p = make_param("w", [w], [0.3])
        for g in (0.3, -0.2):
            p.value.grad = np.array([g], dtype=np.float32)
            sgd_step([p], SgdConfig(lr=lr, momentum=m, weight_decay=wd))
            v = m * v + g + wd * w
            w = w - lr * v
        np.testing.assert_allclose(p.value.data, [w], rtol=1e-5)

    def test_grads_zeroed_after_step(self):
        p = make_param("w", [1.0], [0.5])
        sgd_step([p], SgdConfig(lr=0.1, momentum=0.9, weight_decay=0.0))
        assert p.value.grad is None or not np.any(p.value.grad)

    def test_nan_grad_raises_with_name(self):
        p = make_param("conv1.w", [1.0], [float("nan")])
        with pytest.raises(GradientError, match="conv1.w"):
            sgd_step([p], SgdConfig(lr=0.1, momentum=0.9, weight_decay=0.0))

    def test_config_invariants(self):
        # the SGD settings are config keys, checked by `RunConfig`
        with pytest.raises(ValueError, match="train.lr=0.0 "):
            replace(CFG, train_lr=0.0, train_momentum=0.9, train_weight_decay=0.0)
        with pytest.raises(ValueError, match="train.momentum=1.0 "):
            replace(CFG, train_lr=0.1, train_momentum=1.0, train_weight_decay=0.0)
        with pytest.raises(ValueError, match="train.weight_decay=-1.0 "):
            replace(CFG, train_lr=0.1, train_momentum=0.5, train_weight_decay=-1.0)


class TestMultitaskLoss:
    """The loss reads a head's rows as the head emits them: scores (N, C+1),
    deltas (N, C, 4), the labels, the sampled rows and the foreground rows."""
    LOGITS = np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 0.5]])
    LABELS = np.array([1, 0, 0])
    ROWS = np.arange(3)

    def logloss(self):
        z = self.LOGITS - self.LOGITS.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -logp[np.arange(3), self.LABELS].sum()

    def test_class_term_only_without_pred(self):
        """No foreground row, so no predicted delta: the class term alone."""
        deltas = Tensor(np.ones((3, 1, 4)), requires_grad=True)
        loss, cls, reg = multitask_loss(Tensor(self.LOGITS), deltas, self.LABELS,
                                        self.ROWS, np.zeros(0, dtype=np.int64),
                                        np.zeros((0, 4)), 0.25, 1.0)
        assert cls == pytest.approx(0.25 * self.logloss()) and reg == 0.0
        assert loss.item() == cls
        loss.backward()
        assert deltas.grad is None

    def test_both_terms_scaled(self):
        data = np.zeros((3, 1, 4))
        data[0, 0] = [0.5, 0.0, -3.0, 0.0]
        deltas = Tensor(data, requires_grad=True)
        loss, cls, reg = multitask_loss(Tensor(self.LOGITS), deltas, self.LABELS,
                                        self.ROWS, np.array([0]), np.zeros((1, 4)),
                                        0.5, 2.0)
        # smooth-L1: 0.5 * 0.5**2 + (3 - 0.5)
        assert reg == pytest.approx(2.0 * (0.125 + 2.5))
        assert cls == pytest.approx(0.5 * self.logloss())
        assert loss.item() == pytest.approx(cls + reg)
        loss.backward()
        want = np.zeros((3, 1, 4))
        want[0, 0] = [1.0, 0.0, -2.0, 0.0]
        np.testing.assert_allclose(deltas.grad, want)

    def test_each_foreground_row_regresses_its_own_class(self):
        labels = np.array([2, 0, 3, 1])
        data = np.linspace(-2.0, 2.0, 4 * 3 * 4).reshape(4, 3, 4)
        deltas = Tensor(data, requires_grad=True)
        targets = np.array([[0.25, 0.0, 0.0, 0.0], [0.0, 0.0, -0.5, 0.0]])
        # row 3 is labelled foreground but left out of both `rows` and `fg`
        loss, _, reg = multitask_loss(Tensor(np.zeros((4, 4))), deltas, labels,
                                      np.array([0, 1, 2]), np.array([0, 2]), targets,
                                      1.0, 0.5)
        diff = np.stack([data[0, 1], data[2, 2]]) - targets
        small = np.abs(diff) < 1
        assert reg == pytest.approx(
            0.5 * np.where(small, 0.5 * diff ** 2, np.abs(diff) - 0.5).sum())
        loss.backward()
        want = np.zeros_like(data)
        want[0, 1], want[2, 2] = 0.5 * np.clip(diff, -1, 1)
        np.testing.assert_allclose(deltas.grad, want)
        assert np.count_nonzero(np.abs(deltas.grad).sum(axis=2)) == 2


class TestGaussianInit:
    def test_deterministic(self):
        a = gaussian_init((3, 4), 0.01, Rng(7).substream("init"))
        b = gaussian_init((3, 4), 0.01, Rng(7).substream("init"))
        assert np.array_equal(a, b)
        assert a.shape == (3, 4) and a.dtype == np.float32

    def test_statistics(self):
        x = gaussian_init((1_000_000,), 0.01, Rng(3).substream("init"))
        assert abs(float(x.mean())) <= 4 * (0.01 / 1000.0)
        assert abs(float(x.std()) - 0.01) <= 0.0001


class TestCheckpoint:
    def _params(self):
        rng = Rng(1).substream("init")
        return [
            Param("a.w", gaussian_init((2, 3, 3, 3), 0.1, rng)),
            Param("a.b", gaussian_init((2,), 0.1, rng)),
        ]

    def test_roundtrip(self, tmp_path):
        params = self._params()
        path = tmp_path / "ck.frpn"
        save_checkpoint(params, path)
        state = load_checkpoint(path)
        assert set(state) == {"a.w", "a.b"}
        for p in params:
            assert np.array_equal(state[p.name], p.value.data)
            assert state[p.name].dtype == np.float32
        # and back: a TINY train-rpn checkpoint, opened and saved, is rewritten
        # byte for byte
        data, run_dir = tmp_path / "data", tmp_path / "rpn"
        assert run(["gen-data", "--out", str(data), "--n", "2", *TINY,
                    "--seed", "11"]) == 0
        assert run(["train-rpn", "--out", str(run_dir), "--data", str(data),
                    "--iters", "2", *TINY, "--seed", "11"]) == 0
        cfg = RunConfig.from_file(run_dir / "config.txt")
        save_state(TrainState.open(run_dir / "rpn.frpn", *_dims(cfg)), path)
        assert path.read_bytes() == (run_dir / "rpn.frpn").read_bytes()

    def test_binary_layout(self, tmp_path):
        params = self._params()
        path = tmp_path / "ck.frpn"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        assert raw[:4] == b"FRPN"
        assert int.from_bytes(raw[4:8], "little") == 1   # version
        assert int.from_bytes(raw[8:12], "little") == 2  # param count
        name_len = int.from_bytes(raw[12:14], "little")
        assert raw[14:14 + name_len].decode() == "a.w"
        rank = raw[14 + name_len]
        assert rank == 4
        total = 12
        for p in params:
            total += 2 + len(p.name) + 1 + 4 * p.value.data.ndim \
                + 4 * p.value.data.size
        assert len(raw) == total

    def test_save_is_byte_deterministic(self, tmp_path):
        params = self._params()
        p1, p2 = tmp_path / "a.frpn", tmp_path / "b.frpn"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_restore(self, tmp_path):
        params = self._params()
        path = tmp_path / "ck.frpn"
        save_checkpoint(params, path)
        orig = [p.value.data.copy() for p in params]
        for p in params:
            p.value.data[:] = 0
        restore_params(params, load_checkpoint(path))
        for p, want in zip(params, orig):
            assert np.array_equal(p.value.data, want)

    def test_restored_parameters_need_no_gradient(self, tmp_path):
        """A restored model is inference-only: its forward pass builds no tape."""
        bb = Backbone(Rng(1).substream("init"), (4, 8, 8, 8))
        save_checkpoint(bb.params, tmp_path / "bb.frpn")
        restore_params(bb.params, load_checkpoint(tmp_path / "bb.frpn"))
        assert not any(p.value.requires_grad for p in bb.params)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 16, 16)).astype(np.float32))
        assert bb.forward(x)._backward is None

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        params = self._params()
        params[1].value.data[1] = value
        path = tmp_path / "ck.frpn"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match="ck.frpn: entry 'a.b' holds a non-finite"):
            load_checkpoint(path)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.frpn"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [6, 13, 20, -5, -1])
    def test_truncated_file_rejected(self, tmp_path, keep):
        # inside the header, a name, a shape and the data
        path = tmp_path / "ck.frpn"
        save_checkpoint(self._params(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        with pytest.raises(ValueError, match=f"ck.frpn: truncated after "
                           f"{len(raw[:keep])} bytes"):
            load_checkpoint(path)

    def test_repeated_entry_rejected(self, tmp_path):
        # a third entry that repeats the first's name, its count raised to 3
        params = self._params()
        path = tmp_path / "ck.frpn"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        save_checkpoint(params[:1], tmp_path / "one.frpn")
        entry = (tmp_path / "one.frpn").read_bytes()[12:]
        path.write_bytes(raw[:8] + (3).to_bytes(4, "little") + raw[12:] + entry)
        with pytest.raises(ValueError, match="ck.frpn: entry 'a.w' appears twice"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ck.frpn"
        save_checkpoint(self._params(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="ck.frpn: trailing bytes after its 2 "
                           "entries"):
            load_checkpoint(path)
