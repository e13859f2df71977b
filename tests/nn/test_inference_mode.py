"""Inference fast path: train/eval parity, cache hygiene, mode plumbing."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.diffusion import InpaintConfig, inpaint, linear_schedule
from repro.nn import Conv2d, GroupNorm, SiLU, TimeUnet, UNetConfig, inference_mode
from repro.nn.layers import _BLOCK_BYTES, _stable_sigmoid, gn_silu

FULL_CONFIG = UNetConfig(
    image_size=32,
    base_channels=16,
    channel_mults=(1, 2),
    num_res_blocks=1,
    groups=8,
    time_dim=32,
    attention=True,
    seed=7,
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint32)


@pytest.fixture(scope="module")
def model():
    return TimeUnet(FULL_CONFIG)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 1, 32, 32)).astype(np.float32)
    t = np.full(4, 13, dtype=np.int64)
    return x, t


class TestForwardParity:
    def test_eval_forward_bit_identical(self, model, batch):
        x, t = batch
        model.train()
        out_train = model.forward(x, t)
        with inference_mode(model):
            out_eval = model.forward(x, t)
        np.testing.assert_array_equal(_bits(out_train), _bits(out_eval))

    def test_eval_forward_stable_across_calls(self, model, batch):
        """Workspace reuse must not leak state between forwards."""
        x, t = batch
        with inference_mode(model):
            first = model.forward(x, t)
            model.forward(x[:, :, ::-1].copy(), t)  # different input between
            second = model.forward(x, t)
        np.testing.assert_array_equal(_bits(first), _bits(second))

    def test_varying_batch_sizes(self, model, batch):
        """Partial chunks hit fresh workspace shapes; parity must hold."""
        x, t = batch
        model.train()
        ref = model.forward(x[:3], t[:3])
        with inference_mode(model):
            out = model.forward(x[:3], t[:3])
        np.testing.assert_array_equal(_bits(ref), _bits(out))

    def test_layer_level_parity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8, 16, 16)).astype(np.float32)
        conv = Conv2d(8, 4, 3, rng)
        ref = conv.forward(x)
        conv.eval()
        np.testing.assert_array_equal(_bits(ref), _bits(conv.forward(x).copy()))
        norm = GroupNorm(4, 8)
        act = SiLU()
        ref = act(norm(x))
        norm.eval()
        act.eval()
        np.testing.assert_array_equal(_bits(ref), _bits(act(norm(x)).copy()))
        # The fused pair used inside eval-mode ResBlocks.
        np.testing.assert_array_equal(_bits(ref), _bits(gn_silu(norm, x).copy()))


def _block_size(c, k, out_h, out_w):
    return _BLOCK_BYTES // (c * k * k * out_h * out_w * 4)


class TestBlockedConv:
    """Inference convs run in cache-sized sub-batches; the blocks must not
    change a bit, whichever side of a block boundary the batch falls on."""

    @pytest.mark.parametrize("k,pad", [(3, 1), (3, 0), (1, 0)])
    def test_bit_identical_around_block_boundaries(self, k, pad):
        rng = np.random.default_rng(k * 10 + pad)
        c, h = 8, 16
        out_hw = h + 2 * pad - k + 1
        s = _block_size(c, k, out_hw, out_hw)
        assert 2 <= s < 200  # the batches below straddle real boundaries
        conv = Conv2d(c, 6, k, rng, padding=pad)
        conv.bias.data[:] = rng.normal(size=6).astype(np.float32)
        for n in (1, s - 1, s, s + 1, 2 * s + 1):
            x = rng.normal(size=(n, c, h, h)).astype(np.float32)
            conv.train()
            ref = conv.forward(x)
            conv.eval()
            out = conv.forward(x).copy()
            assert out.shape == (n, 6, out_hw, out_hw)
            np.testing.assert_array_equal(_bits(ref), _bits(out))

    def test_column_workspace_within_block_budget(self):
        """A full-batch column buffer for this UNet layer would be 56 MB;
        the workspace keeps one block (here a single 1.8 MB sample)."""
        rng = np.random.default_rng(1)
        for shape in ((32, 48, 32, 32), (32, 16, 16, 16)):
            n, c, h, w = shape
            conv = Conv2d(c, c, 3, rng)
            conv.eval()
            conv.forward(np.zeros(shape, dtype=np.float32))
            ws = conv._workspaces[shape]
            per_sample = ws["cols"].nbytes // ws["cols"].shape[0]
            assert ws["cols"].nbytes <= max(_BLOCK_BYTES, per_sample)
            assert ws["cols"].shape[0] == max(1, _block_size(c, 3, h, w)) < n
            assert ws["xp"].shape[0] == ws["cols"].shape[0]


class TestSigmoidBits:
    def test_matches_training_sigmoid_on_edge_values(self):
        f32 = np.float32
        tiny = np.finfo(f32).tiny
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        edges += [tiny, -tiny, tiny / 2, -tiny / 2, 1e-45, -1e-45]
        # exp() overflows past ~88.72, goes subnormal below ~-87.34 and
        # underflows to zero below ~-103.97 -- probe both sides of each.
        for edge in (88.72, 87.34, 103.97, 104.0):
            for v in (edge, -edge):
                v = f32(v)
                edges += [np.nextafter(v, f32(-np.inf)), v]
                edges += [np.nextafter(v, f32(np.inf))]
        x = np.array(edges, dtype=f32)
        rng = np.random.default_rng(0)
        x = np.concatenate([x, rng.normal(scale=40, size=4096).astype(f32)])
        act = SiLU()
        act.train()
        with np.errstate(all="ignore"):  # exp underflow, inf * 0 in x * sig
            act.forward(x)
            fast = _stable_sigmoid(x).copy()
        ref = act._cache[1]
        np.testing.assert_array_equal(_bits(ref), _bits(fast))


class TestModeSwitching:
    def test_eval_sets_and_train_restores_flags(self, model):
        model.eval()
        assert all(not m.training for m in model.walk_modules())
        model.train()
        assert all(m.training for m in model.walk_modules())

    def test_inference_mode_restores_previous_state(self, model):
        model.train()
        with inference_mode(model):
            assert not model.training
            assert not model.stem.training
        assert model.training
        assert model.stem.training
        # A model already in eval stays in eval after the context exits.
        model.eval()
        with inference_mode(model):
            pass
        assert not model.training
        model.train()

    def test_training_still_works_after_inference(self, model, batch):
        x, t = batch
        with inference_mode(model):
            model.forward(x, t)
        model.train()
        out = model.forward(x, t)
        model.backward(np.ones_like(out))  # needs the tape => training path
        grads = [p.grad for p in model.parameters()]
        assert any(np.abs(g).sum() > 0 for g in grads)
        model.zero_grad()


class TestCacheHygiene:
    def test_no_caches_alive_after_inference_sampling(self, model):
        """The regression the fast path exists for: sampling in inference
        mode must leave no backward caches pinned on any module."""
        schedule = linear_schedule(40)
        known = np.full((2, 1, 32, 32), -1.0, dtype=np.float32)
        mask = np.zeros((32, 32), dtype=bool)
        mask[:, :16] = True
        model.train()
        model.forward(  # leave stale training caches behind on purpose
            np.zeros((2, 1, 32, 32), dtype=np.float32),
            np.zeros(2, dtype=np.int64),
        )
        with inference_mode(model):
            inpaint(
                model,
                schedule,
                known,
                mask,
                np.random.default_rng(0),
                InpaintConfig(num_steps=3),
            )
            for module in model.walk_modules():
                for attr in ("_cache", "_tape", "_skip_grads"):
                    assert getattr(module, attr, None) is None, (
                        f"{type(module).__name__}.{attr} still alive in "
                        "inference mode"
                    )
        model.train()

    def test_conv_workspaces_bounded(self):
        rng = np.random.default_rng(0)
        conv = Conv2d(4, 4, 3, rng)
        conv.eval()
        for n in range(1, 8):  # 7 distinct input shapes
            conv.forward(np.zeros((n, 4, 8, 8), dtype=np.float32))
        from repro.nn.layers import _MAX_WORKSPACES

        assert len(conv._workspaces) <= _MAX_WORKSPACES


class TestThreadedInference:
    """Concurrent forwards on separate models must not share temporaries."""

    def test_scratch_buffers_are_per_thread(self):
        from repro.nn.layers import _scratch

        shape = (2, 3, 5, 5)
        here = _scratch(shape, np.float32, 0)
        assert _scratch(shape, np.float32, 0) is here  # reused in-thread
        other = []
        thread = threading.Thread(
            target=lambda: other.append(_scratch(shape, np.float32, 0))
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert other[0] is not here
        assert not np.shares_memory(other[0], here)

    def test_concurrent_models_match_serial(self):
        rng = np.random.default_rng(3)
        models = [
            TimeUnet(replace(FULL_CONFIG, seed=seed)) for seed in (11, 12)
        ]
        inputs = [
            (
                rng.normal(size=(2, 1, 32, 32)).astype(np.float32),
                np.array([5 + i, 40 + i], dtype=np.int64),
            )
            for i in range(len(models))
        ]
        serial = []
        for net, (x, t) in zip(models, inputs):
            with inference_mode(net):
                serial.append(net.forward(x, t).copy())

        iterations = 50
        barrier = threading.Barrier(len(models))
        mismatches = [0] * len(models)

        def run(i):
            net, (x, t) = models[i], inputs[i]
            with inference_mode(net):
                barrier.wait(timeout=30)
                for _ in range(iterations):
                    out = net.forward(x, t)
                    if not np.array_equal(_bits(out), _bits(serial[i])):
                        mismatches[i] += 1

        threads = [
            threading.Thread(target=run, args=(i,))
            for i in range(len(models))
        ]
        # Switch threads often so forwards interleave inside layers.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == [0] * len(models)
