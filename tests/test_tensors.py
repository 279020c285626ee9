import numpy as np
import pytest

from fedaudit.tensors import (ErosionConfig, ErosionConfigError, avg_pool,
                              erosion_sequence, upsample)


def pool_oracle(img, factor):
    """Brute-force double-loop block means."""
    c, h, w = img.shape
    out = np.zeros((c, h // factor, w // factor), dtype=np.float64)
    for ch in range(c):
        for i in range(h // factor):
            for j in range(w // factor):
                acc = 0.0
                for di in range(factor):
                    for dj in range(factor):
                        acc += img[ch, i * factor + di, j * factor + dj]
                out[ch, i, j] = acc / (factor * factor)
    return out


def bilinear_oracle(img, factor):
    """Scalar interpolation with half-pixel center alignment."""
    c, h, w = img.shape
    out = np.zeros((c, h * factor, w * factor), dtype=np.float64)
    for ch in range(c):
        for oy in range(h * factor):
            for ox in range(w * factor):
                sy = min(max((oy + 0.5) / factor - 0.5, 0.0), h - 1)
                sx = min(max((ox + 0.5) / factor - 0.5, 0.0), w - 1)
                y0, x0 = int(np.floor(sy)), int(np.floor(sx))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                fy, fx = sy - y0, sx - x0
                out[ch, oy, ox] = (
                    img[ch, y0, x0] * (1 - fy) * (1 - fx)
                    + img[ch, y0, x1] * (1 - fy) * fx
                    + img[ch, y1, x0] * fy * (1 - fx)
                    + img[ch, y1, x1] * fy * fx)
    return out


def rand_img(shape, seed):
    return np.random.default_rng(seed).random(shape, dtype=np.float32)


def frozen_avg_pool(img, factor):
    """Frozen copy of avg_pool as one numpy mean, whose add order for
    factor 2 avg_pool writes down."""
    *lead, h, w = img.shape
    blocks = img.reshape(*lead, h // factor, factor, w // factor, factor)
    return blocks.mean(axis=(-3, -1), dtype=np.float32)


def frozen_erosion_sequence(img, cfg):
    """erosion_sequence on frozen_avg_pool."""
    seq, pooled = [img], img
    for k in range(1, cfg.steps + 1):
        pooled = frozen_avg_pool(pooled, cfg.pool_factor)
        seq.append(upsample(pooled, cfg.pool_factor ** k, cfg.upsample_mode))
    return seq


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestAvgPool:
    def test_2x2_mean(self):
        img = np.array([[[1, 3], [5, 7]]], dtype=np.float32)
        out = avg_pool(img, 2)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(4.0)

    def test_constant_preserved(self):
        img = np.full((2, 8, 8), 0.37, dtype=np.float32)
        assert np.allclose(avg_pool(img, 4), 0.37, atol=1e-7)

    def test_ramp_matches_block_mean_oracle(self):
        img = np.arange(16, dtype=np.float32).reshape(1, 4, 4) / 16
        assert np.allclose(avg_pool(img, 2), pool_oracle(img, 2), atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matches_oracle(self, seed):
        img = rand_img((3, 8, 12), seed)
        assert np.allclose(avg_pool(img, 2), pool_oracle(img, 2), atol=1e-6)
        assert np.allclose(avg_pool(img, 4), pool_oracle(img, 4), atol=1e-6)

    # output widths 1-16, each with a square, a 1-high and a 17-high
    # output, so every width meets heights that differ from it, and the
    # 1-wide outputs have enough windows that the other add order would
    # show
    @pytest.mark.parametrize("batch", [None, 1, 8], ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["f32", "f64"])
    @pytest.mark.parametrize("out_w", range(1, 17))
    def test_factor_2_matches_frozen_mean(self, out_w, dtype, batch):
        lead = () if batch is None else (batch,)
        for out_h in sorted({1, out_w, 17}):
            img = rand_img((*lead, 3, 2 * out_h, 2 * out_w),
                           out_w * 100 + out_h).astype(dtype)
            assert_same_bits(avg_pool(img, 2), frozen_avg_pool(img, 2))

    def test_indivisible_height_named(self):
        with pytest.raises(ValueError, match="height 6"):
            avg_pool(np.zeros((1, 6, 8), dtype=np.float32), 4)

    def test_indivisible_width_named(self):
        with pytest.raises(ValueError, match="width 6"):
            avg_pool(np.zeros((1, 8, 6), dtype=np.float32), 4)

    def test_factor_below_two_rejected(self):
        with pytest.raises(ValueError):
            avg_pool(np.zeros((1, 4, 4), dtype=np.float32), 1)


class TestUpsample:
    def test_nearest_single_pixel(self):
        out = upsample(np.array([[[4.0]]], dtype=np.float32), 2, "nearest")
        assert out.shape == (1, 2, 2)
        assert np.all(out == 4.0)

    def test_nearest_replication_oracle(self):
        img = np.array([[[1, 3], [5, 7]]], dtype=np.float32)
        out = upsample(img, 2, "nearest")
        assert out.shape == (1, 4, 4)
        for i in range(2):
            for j in range(2):
                block = out[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert np.all(block == img[0, i, j])

    def test_nearest_introduces_no_new_values(self):
        img = rand_img((3, 4, 4), 1)
        out = upsample(img, 3, "nearest")
        assert set(np.unique(out)) <= set(np.unique(img))

    def test_bilinear_matches_scalar_oracle(self):
        img = np.array([[[0, 1], [0, 1]]], dtype=np.float32)
        out = upsample(img, 2, "bilinear")
        assert np.allclose(out, bilinear_oracle(img, 2), atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_bilinear_random_matches_oracle(self, seed):
        img = rand_img((2, 3, 5), seed + 10)
        for factor in (2, 3):
            assert np.allclose(upsample(img, factor, "bilinear"),
                               bilinear_oracle(img, factor), atol=1e-6)

    def test_bilinear_bounded_by_input_range(self):
        img = rand_img((3, 4, 4), 2)
        out = upsample(img, 4, "bilinear")
        assert out.min() >= img.min() - 1e-6
        assert out.max() <= img.max() + 1e-6

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            upsample(np.zeros((1, 2, 2), dtype=np.float32), 2, "bicubic")


class TestErodeStep:
    def test_constant_is_identity(self):
        img = np.full((3, 8, 8), 0.6, dtype=np.float32)
        for mode in ("nearest", "bilinear"):
            out = erosion_sequence(
                img, ErosionConfig(1, upsample_mode=mode))[1]
            assert np.allclose(out, img, atol=1e-6)

    def test_2x2_collapses_to_mean(self):
        img = np.array([[[1, 3], [5, 7]]], dtype=np.float32)
        out = erosion_sequence(img, ErosionConfig(1))[1]
        assert np.allclose(out, 4.0)

    def test_nearest_output_piecewise_constant(self):
        img = rand_img((3, 8, 8), 3)
        out = erosion_sequence(img, ErosionConfig(1))[1]
        blocks = out.reshape(3, 4, 2, 4, 2)
        assert np.allclose(blocks, blocks[:, :, :1, :, :1], atol=1e-6)

    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_bounded_by_input(self, mode):
        for seed in range(10):
            img = rand_img((3, 8, 8), seed)
            out = erosion_sequence(
                img, ErosionConfig(1, upsample_mode=mode))[1]
            assert out.min() >= img.min() - 1e-6
            assert out.max() <= img.max() + 1e-6

    def test_nearest_values_subset_of_pooled(self):
        img = rand_img((2, 8, 8), 4)
        pooled = avg_pool(img, 2)
        out = erosion_sequence(img, ErosionConfig(1))[1]
        assert set(np.unique(out)) <= set(np.unique(pooled))

    def test_nearest_preserves_global_mean(self):
        for seed in range(10):
            img = rand_img((3, 16, 16), seed + 20)
            out = erosion_sequence(img, ErosionConfig(1))[1]
            assert abs(float(out.mean()) - float(img.mean())) < 1e-6


class TestErosionSequence:
    def test_full_collapse_to_channel_means(self):
        img = rand_img((3, 32, 32), 5)
        seq = erosion_sequence(img, ErosionConfig(5))
        assert len(seq) == 6
        means = img.mean(axis=(1, 2), keepdims=True)
        assert np.abs(seq[-1] - means).max() < 1e-5

    def test_8x8_k3_whole_image_mean_oracle(self):
        img = rand_img((1, 8, 8), 6)
        seq = erosion_sequence(img, ErosionConfig(3))
        direct = float(np.mean(img.astype(np.float64)))
        assert np.abs(seq[-1] - direct).max() < 1e-5

    def test_block_structure_after_k_steps(self):
        img = rand_img((3, 32, 32), 7)
        seq = erosion_sequence(img, ErosionConfig(4))
        for k in range(1, 5):
            size = 2 ** k
            blocks = seq[k].reshape(3, 32 // size, size, 32 // size, size)
            assert np.abs(blocks - blocks[:, :, :1, :, :1]).max() < 1e-6

    # 2**15000 has more digits than int-to-str conversion allows, so
    # the error must not format the power itself
    @pytest.mark.parametrize("size, steps", [(8, 4), (32, 15000)],
                             ids=["steps_4_on_8x8", "steps_15000_on_32x32"])
    def test_oversized_config_rejected(self, size, steps):
        img = rand_img((3, size, size), 8)
        with pytest.raises(ErosionConfigError, match="does not divide"):
            erosion_sequence(img, ErosionConfig(steps))

    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_stack_matches_per_image_sequences(self, mode):
        images = rand_img((5, 3, 32, 32), 10)
        cfg = ErosionConfig(5, upsample_mode=mode)
        stacked = erosion_sequence(images, cfg)
        for i, img in enumerate(images):
            for got, want in zip(stacked, erosion_sequence(img, cfg),
                                 strict=True):
                assert got[i].dtype == want.dtype
                assert got[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [None, 1, 8], ids=str)
    @pytest.mark.parametrize("steps", range(1, 6))
    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    def test_matches_frozen_mean_sequence(self, mode, steps, batch):
        lead = () if batch is None else (batch,)
        img = rand_img((*lead, 3, 32, 32), steps)
        cfg = ErosionConfig(steps, upsample_mode=mode)
        for got, want in zip(erosion_sequence(img, cfg),
                             frozen_erosion_sequence(img, cfg), strict=True):
            assert_same_bits(got, want)

    def test_all_dims_preserved(self):
        img = rand_img((3, 16, 16), 9)
        for mode in ("nearest", "bilinear"):
            seq = erosion_sequence(img, ErosionConfig(
                3, upsample_mode=mode))
            assert all(s.shape == img.shape for s in seq)


class TestErosionConfig:
    def test_zero_steps_rejected(self):
        # an erosion sequence without an eroded image scores nothing
        with pytest.raises(ErosionConfigError, match="steps must be >= 1"):
            ErosionConfig(0)

    def test_rejects_bad_values(self):
        with pytest.raises(ErosionConfigError):
            ErosionConfig(-1)
        with pytest.raises(ErosionConfigError):
            ErosionConfig(1, pool_factor=1)
        with pytest.raises(ErosionConfigError):
            ErosionConfig(1, upsample_mode="box")
