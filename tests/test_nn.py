import json
import threading

import numpy as np
import pytest

from fedaudit import nn


def tiny_arch():
    """Covers every layer type with ~100 parameters."""
    return nn.ArchitectureDescriptor(
        input_shape=(2, 4, 4),
        layers=(("conv", 2), ("maxpool",), ("flatten",),
                ("dense_relu", 5), ("dense", 3)),
        num_classes=3)


def params_f64(arch, seed):
    return [None if p is None else
            {"W": p["W"].astype(np.float64), "b": p["b"].astype(np.float64)}
            for p in nn.init_params(arch, seed)]


def flatten_params(params):
    vecs, layout = [], []
    for i, p in enumerate(params):
        if p is None:
            continue
        for name in ("W", "b"):
            layout.append((i, name, p[name].shape))
            vecs.append(p[name].ravel())
    return np.concatenate(vecs), layout


def unflatten_params(vec, layout, template):
    params = [None if p is None else {} for p in template]
    pos = 0
    for i, name, shape in layout:
        size = int(np.prod(shape))
        params[i][name] = vec[pos:pos + size].reshape(shape)
        pos += size
    return params


def finite_difference_grad(arch, params, images, labels, step=1e-3):
    vec, layout = flatten_params(params)
    grad = np.zeros_like(vec)
    for j in range(len(vec)):
        for sign in (1.0, -1.0):
            bumped = vec.copy()
            bumped[j] += sign * step
            loss, _ = nn.loss_and_gradients(
                unflatten_params(bumped, layout, params), arch, images,
                labels)
            grad[j] += sign * loss
    return grad / (2 * step)


def assert_matches_finite_differences(arch, params, images, labels,
                                      step=1e-3):
    """float64 analytic gradients agree with central differences."""
    _, grads = nn.loss_and_gradients(params, arch, images, labels)
    analytic, _ = flatten_params(grads)
    numeric = finite_difference_grad(arch, params, images, labels, step)
    denom = np.maximum(np.abs(numeric), 1e-4)
    assert np.max(np.abs(analytic - numeric) / denom) < 1e-3


class TestForward:
    def test_zero_final_layer_gives_uniform(self):
        arch = tiny_arch()
        params = nn.init_params(arch, 0)
        params[-1]["W"][:] = 0
        params[-1]["b"][:] = 0
        img = np.random.default_rng(0).random((2, 4, 4), dtype=np.float32)
        probs = nn.forward(params, arch, img)
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_probs_sum_to_one(self, seed):
        arch = tiny_arch()
        params = nn.init_params(arch, seed)
        img = np.random.default_rng(seed).random((2, 4, 4),
                                                 dtype=np.float32)
        probs = nn.forward(params, arch, img)
        assert probs.shape == (3,)
        assert abs(float(probs.sum()) - 1.0) < 1e-5
        assert probs.min() >= 0.0

    def test_forward_deterministic(self):
        arch = tiny_arch()
        params = nn.init_params(arch, 7)
        img = np.random.default_rng(7).random((2, 4, 4), dtype=np.float32)
        a = nn.forward(params, arch, img)
        b = nn.forward(params, arch, img)
        assert a.tobytes() == b.tobytes()

    def test_shape_mismatch_rejected(self):
        arch = tiny_arch()
        params = nn.init_params(arch, 0)
        with pytest.raises(nn.ShapeMismatchError):
            nn.forward(params, arch, np.zeros((2, 8, 8), dtype=np.float32))

    def test_softmax_stable_for_huge_logits(self):
        # drive the final layer to produce logits around +-1e4
        arch = nn.ArchitectureDescriptor(
            input_shape=(1, 2, 2),
            layers=(("flatten",), ("dense", 4)), num_classes=4)
        params = nn.init_params(arch, 0)
        params[-1]["W"][:] = np.array(
            [[1e4, -1e4, 5e3, 0]] * 4, dtype=np.float32)
        img = np.ones((1, 2, 2), dtype=np.float32)
        probs = nn.forward(params, arch, img)
        assert np.all(np.isfinite(probs))
        assert abs(float(probs.sum()) - 1.0) < 1e-5
        loss, grads = nn.loss_and_gradients(params, arch, img[None], [1])
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(g["W"])) for g in grads
                   if g is not None)


class TestGradients:
    def test_uniform_model_loss_is_log_classes(self):
        arch = tiny_arch()
        params = nn.init_params(arch, 0)
        params[-1]["W"][:] = 0
        params[-1]["b"][:] = 0
        imgs = np.random.default_rng(1).random((4, 2, 4, 4),
                                               dtype=np.float32)
        loss, _ = nn.loss_and_gradients(params, arch, imgs, [0, 1, 2, 0])
        assert loss == pytest.approx(np.log(3), abs=1e-4)

    def test_uniform_ten_classes(self):
        arch = nn.ArchitectureDescriptor(
            input_shape=(1, 2, 2), layers=(("flatten",), ("dense", 10)),
            num_classes=10)
        params = nn.init_params(arch, 0)
        params[-1]["W"][:] = 0
        imgs = np.ones((2, 1, 2, 2), dtype=np.float32)
        loss, _ = nn.loss_and_gradients(params, arch, imgs, [3, 9])
        assert loss == pytest.approx(2.302585, abs=1e-4)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        arch = tiny_arch()
        rng = np.random.default_rng(seed + 100)
        images = rng.random((3, 2, 4, 4))
        assert_matches_finite_differences(arch, params_f64(arch, seed),
                                          images, rng.integers(0, 3, size=3))

    # tiny_arch's one conv never computes an input gradient; here the
    # second conv's feeds the first conv's weights, once through maxpool
    # and once from flatten, which hands the conv an NCHW dy
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("middle", [(("maxpool",),), ()],
                             ids=["pooled", "stacked"])
    def test_conv_input_gradient_matches_finite_differences(self, middle,
                                                            batch):
        arch = nn.ArchitectureDescriptor(
            input_shape=(2, 4, 6),
            layers=(("conv", 2),) + middle + (("conv", 3), ("flatten",),
                                              ("dense", 3)),
            num_classes=3)
        rng = np.random.default_rng(batch)
        params = params_f64(arch, batch)
        # nonzero biases: with zero ones, a conv input that ReLU zeroed
        # everywhere puts the next pre-activation on its kink at 0.0; and
        # a small step, since two ReLU layers leave kinks within 1e-3
        for p in params:
            if p is not None:
                p["b"] = rng.uniform(-0.1, 0.1, p["b"].shape)
        assert_matches_finite_differences(
            arch, params, rng.random((batch, 2, 4, 6)),
            rng.integers(0, 3, size=batch), step=1e-6)

    def test_duplicated_batch_same_loss_and_grads(self):
        arch = tiny_arch()
        params = params_f64(arch, 3)
        rng = np.random.default_rng(3)
        images = rng.random((2, 2, 4, 4))
        labels = [0, 2]
        loss1, g1 = nn.loss_and_gradients(params, arch, images, labels)
        loss2, g2 = nn.loss_and_gradients(
            params, arch, np.concatenate([images, images]), labels * 2)
        assert loss1 == pytest.approx(loss2, abs=1e-12)
        v1, _ = flatten_params(g1)
        v2, _ = flatten_params(g2)
        assert np.allclose(v1, v2, atol=1e-12)

    def test_label_out_of_range(self):
        arch = tiny_arch()
        params = nn.init_params(arch, 0)
        imgs = np.zeros((1, 2, 4, 4), dtype=np.float32)
        with pytest.raises(nn.LabelRangeError):
            nn.loss_and_gradients(params, arch, imgs, [3])

    def test_empty_batch_rejected(self):
        arch = tiny_arch()
        params = nn.init_params(arch, 0)
        with pytest.raises(ValueError):
            nn.loss_and_gradients(
                params, arch, np.zeros((0, 2, 4, 4), dtype=np.float32), [])


class TestSgdStep:
    def test_zero_lr_unchanged(self):
        arch = tiny_arch()
        params = nn.init_params(arch, 0)
        _, grads = nn.loss_and_gradients(
            params, arch, np.ones((1, 2, 4, 4), dtype=np.float32), [0])
        out = nn.sgd_step(params, grads, 0.0)
        for p, q in zip(params, out):
            if p is not None:
                assert np.array_equal(p["W"], q["W"])

    def test_zero_grads_unchanged(self):
        arch = tiny_arch()
        params = nn.init_params(arch, 0)
        zeros = [None if p is None else
                 {"W": np.zeros_like(p["W"]), "b": np.zeros_like(p["b"])}
                 for p in params]
        out = nn.sgd_step(params, zeros, 0.5)
        for p, q in zip(params, out):
            if p is not None:
                assert np.array_equal(p["W"], q["W"])

    def test_scalar_arithmetic(self):
        params = [{"W": np.array([[1.0]]), "b": np.array([0.0])}]
        grads = [{"W": np.array([[0.5]]), "b": np.array([0.0])}]
        out = nn.sgd_step(params, grads, 0.1)
        assert out[0]["W"][0, 0] == pytest.approx(0.95)

    def test_shape_mismatch_rejected(self):
        params = [{"W": np.zeros((2, 2)), "b": np.zeros(2)}]
        grads = [{"W": np.zeros((3, 2)), "b": np.zeros(2)}]
        with pytest.raises(nn.ShapeMismatchError):
            nn.sgd_step(params, grads, 0.1)


class TestTraining:
    def test_separable_toy_reaches_full_accuracy(self):
        arch = nn.ArchitectureDescriptor(
            input_shape=(1, 2, 2), layers=(("flatten",), ("dense", 2)),
            num_classes=2)
        params = nn.init_params(arch, 0)
        rng = np.random.default_rng(0)
        n = 40
        images = np.empty((n, 1, 2, 2), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        images[:n // 2] = rng.uniform(0.0, 0.3, (n // 2, 1, 2, 2))
        labels[:n // 2] = 0
        images[n // 2:] = rng.uniform(0.7, 1.0, (n // 2, 1, 2, 2))
        labels[n // 2:] = 1
        for _ in range(200):
            _, grads = nn.loss_and_gradients(params, arch, images, labels)
            params = nn.sgd_step(params, grads, 0.5)
        logits = nn.forward_batch(params, arch, images)
        assert np.mean(logits.argmax(axis=1) == labels) == 1.0

    def test_training_deterministic(self):
        arch = tiny_arch()
        rng = np.random.default_rng(5)
        images = rng.random((8, 2, 4, 4)).astype(np.float32)
        labels = rng.integers(0, 3, size=8)

        def run():
            params = nn.init_params(arch, 5)
            for _ in range(20):
                _, grads = nn.loss_and_gradients(params, arch, images,
                                                 labels)
                params = nn.sgd_step(params, grads, 0.1)
            return params

        a, b = run(), run()
        for pa, pb in zip(a, b):
            if pa is not None:
                assert pa["W"].tobytes() == pb["W"].tobytes()
                assert pa["b"].tobytes() == pb["b"].tobytes()


class TestQueryFacade:
    def test_counter_increments(self):
        arch = tiny_arch()
        model = nn.Model(arch=arch, params=nn.init_params(arch, 0))
        img = np.zeros((2, 4, 4), dtype=np.float32)
        assert model.query_count == 0
        model.query(img)
        assert model.query_count == 1
        for _ in range(9):
            model.query(img)
        assert model.query_count == 10

    def test_refused_query_is_not_counted(self):
        arch = nn.default_architecture()
        model = nn.Model(arch=arch, params=nn.init_params(arch, 0))
        with pytest.raises(nn.ShapeMismatchError):
            model.query(np.zeros((3, 16, 16), dtype=np.float32))
        # one unbatched image: its channel axis is not a stack of 3
        with pytest.raises(nn.ShapeMismatchError):
            model.query_batch(np.zeros((3, 32, 32), dtype=np.float32))
        assert model.query_count == 0

    def test_counter_is_not_a_constructor_argument(self):
        arch = tiny_arch()
        with pytest.raises(TypeError, match="_query_count"):
            nn.Model(arch=arch, params=nn.init_params(arch, 0),
                     _query_count=3)

    @pytest.mark.parametrize("n", [1, 3, 8, 32])
    def test_query_batch_rows_have_query_bits(self, n):
        arch = nn.default_architecture()
        model = nn.Model(arch=arch, params=nn.init_params(arch, 4))
        images = np.random.default_rng(n).random((n, 3, 32, 32),
                                                 dtype=np.float32)
        probs = model.query_batch(images)
        assert model.query_count == n
        assert_same_bits(probs, np.stack([model.query(x) for x in images]))
        assert model.query_count == 2 * n

    def test_counter_atomic_under_threads(self):
        arch = tiny_arch()
        model = nn.Model(arch=arch, params=nn.init_params(arch, 0))
        img = np.zeros((2, 4, 4), dtype=np.float32)

        def worker():
            for _ in range(50):
                model.query(img)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert model.query_count == 200


class TestCheckpoint:
    def test_round_trip_forward_bit_identical(self, tmp_path):
        arch = nn.default_architecture(input_shape=(3, 16, 16),
                                       num_classes=4)
        model = nn.Model(arch=arch, params=nn.init_params(arch, 9),
                         trained_on={"seed": 9, "fed": {"lr": 0.08}})
        img = np.random.default_rng(9).random((3, 16, 16),
                                              dtype=np.float32)
        model.query(img)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, model)
        loaded = nn.load_checkpoint(path)
        assert loaded.trained_on == {"seed": 9, "fed": {"lr": 0.08}}
        assert loaded.query_count == 0  # a count of this process only
        assert loaded.arch == arch
        a = nn.forward(model.params, arch, img)
        b = nn.forward(loaded.params, loaded.arch, img)
        assert a.tobytes() == b.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        arch = tiny_arch()
        model = nn.Model(arch=arch, params=nn.init_params(arch, 1),
                         trained_on={"seed": 1})
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(p1, model)
        nn.save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_full_disk_keeps_an_earlier_checkpoint(self, tmp_path,
                                                   full_disk):
        arch = tiny_arch()
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nn.Model(arch=arch,
                                          params=nn.init_params(arch, 1)))
        before = path.read_bytes()
        full_disk("model.ckpt")
        with pytest.raises(OSError, match="No space left"):
            nn.save_checkpoint(path, nn.Model(
                arch=arch, params=nn.init_params(arch, 2)))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_default_architecture_header_line(self, tmp_path):
        arch = nn.default_architecture()
        model = nn.Model(arch=arch, params=nn.init_params(arch, 0),
                         trained_on={"seed": 0})
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, model)
        assert path.read_bytes().split(b"\n")[:2] == [
            b"FEDAUDIT-CKPT v2",
            b'{"arch": {"input_shape": [3, 32, 32], "layers": [["conv", 8], '
            b'["maxpool"], ["conv", 16], ["maxpool"], ["flatten"], '
            b'["dense_relu", 64], ["dense", 10]], "num_classes": 10}, '
            b'"trained_on": {"seed": 0}}']

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)

    def saved(self, tmp_path):
        arch = nn.default_architecture(input_shape=(3, 8, 8), num_classes=4)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nn.Model(
            arch=arch, params=nn.init_params(arch, 2),
            trained_on={"seed": 2, "dataset": {"dims": [3, 8, 8]}}))
        return path, path.read_bytes()

    def rewrite_header(self, path, raw, edit):
        """Write raw back with edit applied to its parsed JSON header."""
        magic = len(nn.CHECKPOINT_MAGIC)
        end = raw.index(b"\n", magic) + 1
        header = json.loads(raw[magic:end])
        edit(header)
        path.write_bytes(raw[:magic] + json.dumps(header).encode() + b"\n"
                         + raw[end:])

    @pytest.mark.parametrize("cut", [1, 4, 100, 1000])
    def test_truncated_rejected(self, tmp_path, cut):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw[:-cut])
        with pytest.raises(nn.CheckpointError, match="truncated"):
            nn.load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw[:len(nn.CHECKPOINT_MAGIC) + 20])
        with pytest.raises(nn.CheckpointError, match="bad header"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("tail", [b"\0", b"extra bytes"])
    def test_trailing_bytes_rejected(self, tmp_path, tail):
        path, raw = self.saved(tmp_path)
        path.write_bytes(raw + tail)
        with pytest.raises(nn.CheckpointError, match="trailing bytes"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("width, message", [
        (9, "truncated in layer 6 W"), (7, "trailing bytes")],
        ids=["widen_conv", "narrow_conv"])
    def test_header_arch_sets_byte_count(self, tmp_path, width, message):
        path, raw = self.saved(tmp_path)

        def edit(header):
            assert header["arch"]["layers"][0] == ["conv", 8]
            header["arch"]["layers"][0][1] = width

        self.rewrite_header(path, raw, edit)
        with pytest.raises(nn.CheckpointError, match=message):
            nn.load_checkpoint(path)

    def test_negative_input_dim_is_a_bad_header(self, tmp_path):
        # one byte, " " -> "-", turns input_shape [3, 8, 8] into [3,-8, 8]
        path, raw = self.saved(tmp_path)
        field = b'"input_shape": [3,'
        pos = raw.index(field + b" 8, 8]") + len(field)
        path.write_bytes(raw[:pos] + b"-" + raw[pos + 1:])
        with pytest.raises(nn.CheckpointError, match="input dims"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("field, value, message", [
        ("input_shape", [3.0, 8, 8], "input dims must be ints"),
        ("input_shape", [True, 8, 8], "input dims must be ints"),
        ("input_shape", [3, 8.0, 8], "input dims must be ints"),
        ("layers", [["conv", 8.0]], "conv width must be an int"),
        ("num_classes", 4.0, "num_classes must be an int"),
    ], ids=["float_channels", "bool_channels", "float_height",
            "float_conv_width", "float_num_classes"])
    def test_non_int_arch_sizes_are_a_bad_header(self, tmp_path, field,
                                                 value, message):
        path, raw = self.saved(tmp_path)

        def edit(header):
            if field == "layers":
                header["arch"]["layers"][:1] = value
            else:
                header["arch"][field] = value

        self.rewrite_header(path, raw, edit)
        with pytest.raises(nn.CheckpointError, match=message):
            nn.load_checkpoint(path)

    def test_extra_layer_argument_is_a_bad_header(self, tmp_path):
        path, raw = self.saved(tmp_path)

        def edit(header):
            assert header["arch"]["layers"][1] == ["maxpool"]
            header["arch"]["layers"][1].append(5)

        self.rewrite_header(path, raw, edit)
        with pytest.raises(nn.CheckpointError,
                           match="maxpool layer takes 0 argument"):
            nn.load_checkpoint(path)

    def test_v1_file_rejected_naming_v2(self, tmp_path):
        path, raw = self.saved(tmp_path)
        path.write_bytes(b"FEDAUDIT-CKPT v1\n"
                         + raw[len(nn.CHECKPOINT_MAGIC):])
        with pytest.raises(nn.CheckpointError, match="v2"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("trained_on", [None, [2]],
                             ids=["missing", "not_an_object"])
    def test_header_without_trained_on_rejected(self, tmp_path, trained_on):
        path, raw = self.saved(tmp_path)

        def edit(header):
            del header["trained_on"]
            if trained_on is not None:
                header["trained_on"] = trained_on

        self.rewrite_header(path, raw, edit)
        with pytest.raises(nn.CheckpointError, match="bad header"):
            nn.load_checkpoint(path)

    def test_float64_params_not_saved(self, tmp_path):
        arch = tiny_arch()
        path = tmp_path / "model.ckpt"
        model = nn.Model(arch=arch, params=params_f64(arch, 0))
        with pytest.raises(nn.CheckpointError, match="float32"):
            nn.save_checkpoint(path, model)
        assert not path.exists()

    def test_damaged_files_load_or_raise_checkpoint_error(self, tmp_path):
        """Every header cut and 50 payload cuts raise CheckpointError; 200
        one-byte header flips each load or raise it, nothing else."""
        path, raw = self.saved(tmp_path)
        end = raw.index(b"\n", len(nn.CHECKPOINT_MAGIC)) + 1
        rng = np.random.default_rng(7)
        cuts = [*range(end), *rng.integers(end, len(raw), 50)]
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(nn.CheckpointError):
                nn.load_checkpoint(path)
        for pos, flip in zip(rng.integers(0, end, 200),
                             rng.integers(1, 256, 200)):
            flipped = bytearray(raw)
            flipped[pos] ^= flip
            path.write_bytes(bytes(flipped))
            try:
                nn.load_checkpoint(path)
            except nn.CheckpointError:
                pass

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_is_refused(self, tmp_path, value):
        path, _ = self.saved(tmp_path)
        model = nn.load_checkpoint(path)
        dense = len(model.params) - 1
        model.params[dense]["b"][1] = value
        nn.save_checkpoint(path, model)
        with pytest.raises(nn.CheckpointError,
                           match=f"^{path}: layer {dense} b holds 1 "
                                 f"non-finite values$"):
            nn.load_checkpoint(path)

    def test_checkpoint_error_is_value_error(self):
        assert issubclass(nn.CheckpointError, ValueError)


class TestArchitectureDescriptor:
    def test_final_width_must_match_classes(self):
        with pytest.raises(ValueError):
            nn.ArchitectureDescriptor(
                input_shape=(1, 2, 2), layers=(("flatten",), ("dense", 5)),
                num_classes=3)

    def test_final_layer_must_be_plain_dense(self):
        with pytest.raises(ValueError):
            nn.ArchitectureDescriptor(
                input_shape=(1, 2, 2),
                layers=(("flatten",), ("dense_relu", 3)), num_classes=3)

    def test_numpy_int_sizes_accepted(self):
        arch = nn.default_architecture(
            input_shape=np.array([3, 8, 8]), num_classes=np.int64(4),
            conv_channels=(np.int32(2),), dense_width=np.int64(5))
        assert arch.layer_shapes()[-1] == (4,)

    def test_shape_chain(self):
        arch = nn.default_architecture()
        shapes = arch.layer_shapes()
        assert shapes[0] == (3, 32, 32)
        assert shapes[-1] == (10,)
        assert (16, 8, 8) in shapes

    @pytest.mark.parametrize("input_shape, layers, message", [
        ((1, 2, 2), (("pool",), ("flatten",), ("dense", 3)),
         "unknown layer kind"),
        ((1, 3, 3), (("maxpool",), ("flatten",), ("dense", 3)),
         "odd dims"),
        ((1, 2, 2), (("dense", 3),), "flat input"),
        ((1, 2, 2), (("flatten",), ("conv", 2), ("dense", 3)),
         r"conv layer needs a \(C, H, W\) input"),
        ((1, 2, 2), (("conv", 0), ("flatten",), ("dense", 3)),
         "conv width must be >= 1, got 0"),
        ((1, 2, 2), (("flatten",), ("dense_relu", 0), ("dense", 3)),
         "dense_relu width must be >= 1, got 0"),
        ((1, -2, 2), (("conv", 2), ("flatten",), ("dense", 3)),
         r"input dims must be >= 1, got \(1, -2, 2\)"),
        ((1, 2, 2), (("flatten",), ("dense_relu", 2.0), ("dense", 3)),
         r"dense_relu width must be an int, got 2\.0"),
        ((1, 2, np.int64(2)), (("flatten",), ("dense", True)),
         "dense width must be an int, got True"),
        ((1, 2, 2), (("maxpool", 5), ("flatten",), ("dense", 3)),
         r"maxpool layer takes 0 argument\(s\), got \('maxpool', 5\)"),
        ((1, 2, 2), (("flatten", "x"), ("dense", 3)),
         r"flatten layer takes 0 argument\(s\), got \('flatten', 'x'\)"),
        ((1, 2, 2), (("flatten",), ("dense", 3, 7)),
         r"dense layer takes 1 argument\(s\), got \('dense', 3, 7\)"),
        ((1, 2, 2), (("conv",), ("flatten",), ("dense", 3)),
         r"conv layer takes 1 argument\(s\), got \('conv',\)"),
        ((1, 2, 2), ((), ("flatten",), ("dense", 3)),
         r"unknown layer kind in \(\)"),
    ], ids=["unknown_kind", "maxpool_odd_dims", "dense_on_image",
            "conv_on_flat", "conv_width_zero", "dense_width_zero",
            "negative_input_dim", "float_width", "bool_width",
            "maxpool_with_width", "flatten_with_arg", "dense_two_widths",
            "conv_without_width", "empty_layer"])
    def test_invalid_layer_chain_rejected(self, input_shape, layers,
                                          message):
        with pytest.raises(ValueError, match=message):
            nn.ArchitectureDescriptor(input_shape=input_shape,
                                      layers=layers, num_classes=3)


def ref_init_params(arch, seed):
    """Frozen copy of the original per-kind Glorot-uniform init."""
    rng = np.random.default_rng(seed)
    params = []
    for layer, (in_dim, *_) in zip(arch.layers, arch.layer_shapes()):
        if layer[0] == "conv":
            w_shape, b_shape = (layer[1], in_dim, 3, 3), (layer[1],)
            fan_in, fan_out = w_shape[1] * 9, w_shape[0] * 9
        elif layer[0] in ("dense_relu", "dense"):
            w_shape, b_shape = (in_dim, layer[1]), (layer[1],)
            fan_in, fan_out = w_shape
        else:
            params.append(None)
            continue
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, w_shape)
        params.append({"W": w.astype(np.float32),
                       "b": np.zeros(b_shape, dtype=np.float32)})
    return params


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("make_arch", [tiny_arch, nn.default_architecture],
                         ids=["tiny", "default"])
def test_init_params_matches_reference(make_arch, seed):
    arch = make_arch()
    got, want = nn.init_params(arch, seed), ref_init_params(arch, seed)
    assert [p is None for p in got] == [p is None for p in want]
    for g, w in zip(got, want):
        if w is not None:
            assert list(g) == list(w)
            for name in w:
                assert_same_bits(g[name], w[name])


# ---------------------------------------------------------------------------
# layer kernels against frozen copies of the original im2col/argmax kernels,
# and of the channels-first conv backward that replaced the original one


def ref_conv_forward(x, w, b):
    n, c, h, wd = x.shape
    out_c = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, h, wd, c, 3, 3), dtype=xp.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, :, :, :, di, dj] = \
                xp[:, :, di:di + h, dj:dj + wd].transpose(0, 2, 3, 1)
    mat = cols.reshape(n * h * wd, c * 9)
    y = mat @ w.reshape(out_c, c * 9).T + b
    y = y.reshape(n, h, wd, out_c).transpose(0, 3, 1, 2)
    return y, (mat, x.shape)


def ref_conv_backward(dy, w, cache):
    mat, x_shape = cache
    n, c, h, wd = x_shape
    out_c = w.shape[0]
    dym = dy.transpose(0, 2, 3, 1).reshape(n * h * wd, out_c)
    dw = (dym.T @ mat).reshape(out_c, c, 3, 3)
    db = dym.sum(axis=0)
    dcols = (dym @ w.reshape(out_c, c * 9)).reshape(n, h, wd, c, 3, 3)
    dxp = np.zeros((n, c, h + 2, wd + 2), dtype=dcols.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, :, di:di + h, dj:dj + wd] += \
                dcols[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return dxp[:, :, 1:-1, 1:-1], dw, db


def ref_conv_backward_cf(dy, w, cache):
    """Frozen copy of the channels-first conv backward: cache holds the
    contiguous transposed im2col matrix (C*9, N*H*W)."""
    cols, x_shape = cache
    n, c, h, wd = x_shape
    out_c = w.shape[0]
    dyc = dy.transpose(1, 0, 2, 3).reshape(out_c, n * h * wd)
    dw = (dyc @ cols.T).reshape(out_c, c, 3, 3)
    db = dyc.sum(axis=1)
    dcols = (w.reshape(out_c, c * 9).T @ dyc).reshape(c, 3, 3, n, h, wd)
    dxp = np.zeros((c, n, h + 2, wd + 2), dtype=dcols.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, :, di:di + h, dj:dj + wd] += dcols[:, di, dj]
    return dxp[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3), dw, db


def cf_backward(dy, w, cache):
    """ref_conv_backward_cf on the cache of ref_conv_forward."""
    mat, x_shape = cache
    return ref_conv_backward_cf(dy, w, (np.ascontiguousarray(mat.T), x_shape))


def exact_conv_backward(dy, w, cache):
    """ref_conv_backward with dW and db summed in float64 from the same
    float32 operands: the yardstick for their rounding error."""
    mat, x_shape = cache
    dx = ref_conv_backward(dy, w, cache)[0]
    _, dw, db = ref_conv_backward(dy.astype(np.float64), w,
                                  (mat.astype(np.float64), x_shape))
    return dx, dw, db


def assert_no_farther(got, old, exact):
    """got's largest error against exact is no larger than old's."""
    def err(a):
        return np.max(np.abs(a.astype(np.float64) - exact))
    assert err(got) <= err(old)


def ref_maxpool_forward(x):
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return y, (idx, x.shape)


def ref_maxpool_backward(dy, cache):
    idx, x_shape = cache
    n, c, h, w = x_shape
    dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=dy.dtype)
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
    dwin = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return dwin.reshape(n, c, h, w)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes()


def channels_last(x):
    """Same values as x, stored (N, H, W, C) behind an NCHW view."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def pooled_layout(x):
    """Same values as x, in the channels-first buffer behind an NCHW view
    that _maxpool_values returns and conv2 receives: x pooled from its
    own 2x2 upsampling."""
    return nn._maxpool_values(np.repeat(np.repeat(x, 2, axis=2), 2, axis=3))


def tie_heavy(rng, shape):
    """Mostly tied 2x2 windows: zeros, -0.0, and a few repeated values."""
    return rng.choice(np.array([0.0, -0.0, 0.5, 0.5, 1.0, -1.0],
                               dtype=np.float32), size=shape)


def tie_heavy_images(rng, n, c, h, w):
    """tie_heavy 4x4 blocks shared by all channels: a conv with zero bias
    gives exact +0.0 inside the zero blocks, next to negative outputs, so
    ReLU-then-pool and pool-then-ReLU meet windows of +0.0 and -0.0."""
    return np.kron(tie_heavy(rng, (n, 1, h // 4, w // 4)),
                   np.ones((1, c, 4, 4), dtype=np.float32))


def pool_input(rng, fill, shape):
    """A maxpool input of one of POOL_FILLS."""
    if fill == "random":
        return rng.standard_normal(shape).astype(np.float32)
    if fill == "ties":
        return tie_heavy(rng, shape)
    if fill == "zeros":
        return np.zeros(shape, dtype=np.float32)
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0).astype(np.float32)


POOL_FILLS = ["random", "ties", "zeros", "signed_zeros"]
POOL_SHAPES = [(32, 8, 32, 32), (1, 16, 16, 16), (3, 2, 6, 4)]


# (batch, in channels, out channels, height, width)
CONV_CASES = [(32, 3, 8, 32, 32), (32, 8, 16, 16, 16), (1, 3, 8, 32, 32),
              (1, 8, 16, 16, 16), (3, 2, 5, 6, 4)]


def conv_case(case):
    """Seeded float32 (x, W, b, dy) for a CONV_CASES entry."""
    n, c, out_c, h, w = case
    rng = np.random.default_rng(sum(case))
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    wt = rng.standard_normal((out_c, c, 3, 3)).astype(np.float32)
    b = rng.standard_normal(out_c).astype(np.float32)
    dy = rng.standard_normal((n, out_c, h, w)).astype(np.float32)
    return x, wt, b, dy


class TestLayerKernels:
    @pytest.mark.parametrize("case", CONV_CASES, ids=str)
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    def test_conv_matches_reference(self, case, layout):
        x, wt, b, dy = conv_case(case)
        if layout == "channels_last":
            x, dy = channels_last(x), channels_last(dy)
        y, cache = nn._conv_forward(x, wt, b)
        y_ref, cache_ref = ref_conv_forward(x, wt, b)
        assert_same_bits(y, y_ref)
        # the original im2col matrix, stored transposed
        assert_same_bits(cache[0].T, cache_ref[0])
        assert cache[1] == cache_ref[1]
        got = nn._conv_backward(dy, wt, cache)
        # every dy layout gets the bits of a contiguous NCHW dy
        want = cf_backward(np.ascontiguousarray(dy), wt, cache_ref)
        old = ref_conv_backward(dy, wt, cache_ref)
        exact = exact_conv_backward(dy, wt, cache_ref)
        assert_same_bits(got[0], old[0])  # dx keeps the original bits
        for g, r, o, e in zip(got, want, old, exact):
            assert_same_bits(g, r)
            assert_no_farther(g, o, e)
        dx, dw, db = nn._conv_backward(dy, wt, cache, input_grad=False)
        assert dx is None
        assert_same_bits(dw, want[1])
        assert_same_bits(db, want[2])

    # plus a batch of 5 and one of 64, an accuracy chunk
    @pytest.mark.parametrize("case", CONV_CASES + [
        (5, 3, 8, 32, 32), (5, 8, 16, 16, 16), (64, 3, 8, 32, 32),
        (64, 8, 16, 16, 16)], ids=str)
    @pytest.mark.parametrize("layout", [
        "nchw", "channels_last", "pooled"])
    def test_conv_values_match_conv_forward(self, case, layout):
        x, wt, b, _ = conv_case(case)
        if layout == "channels_last":
            x = channels_last(x)
        elif layout == "pooled":
            x = pooled_layout(x)
            assert x.transpose(1, 0, 2, 3).flags.c_contiguous
        assert_same_bits(nn._conv_values(x, wt, b),
                         nn._conv_forward(x, wt, b)[0])

    @pytest.mark.parametrize("case", CONV_CASES, ids=str)
    def test_conv_backward_bits_do_not_depend_on_dy_layout(self, case):
        x, wt, b, dy = conv_case(case)
        _, cache = nn._conv_forward(x, wt, b)
        want = nn._conv_backward(dy, wt, cache)
        channels_first = np.ascontiguousarray(
            dy.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        for layout in (channels_last(dy), channels_first):
            for g, w in zip(nn._conv_backward(layout, wt, cache), want):
                assert_same_bits(g, w)

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("case", CONV_CASES, ids=str)
    def test_activations_stored_channels_first(self, case, layout):
        n, c, out_c, h, w = case
        rng = np.random.default_rng(sum(case))
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        if layout == "channels_last":
            x = channels_last(x)
        y, _ = nn._conv_forward(x, rng.standard_normal(
            (out_c, c, 3, 3)).astype(np.float32), np.zeros(out_c, np.float32))
        relu = y * (y > 0)
        pooled, cache = nn._maxpool_forward(relu)
        dx = nn._maxpool_backward(pooled, cache)
        for a in (y, relu, pooled, cache[0], dx, nn._maxpool_values(y)):
            assert a.transpose(1, 0, 2, 3).flags.c_contiguous

    @pytest.mark.parametrize("fill", POOL_FILLS)
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("shape", POOL_SHAPES, ids=str)
    def test_maxpool_matches_reference(self, fill, layout, shape):
        rng = np.random.default_rng(len(fill) + shape[0])
        x = pool_input(rng, fill, shape)
        out_shape = (shape[0], shape[1], shape[2] // 2, shape[3] // 2)
        dy = rng.standard_normal(out_shape).astype(np.float32)
        if layout == "channels_last":
            x, dy = channels_last(x), channels_last(dy)
        y, (idx, x_shape) = nn._maxpool_forward(x)
        y_ref, cache_ref = ref_maxpool_forward(x)
        assert_same_bits(y, y_ref)
        assert np.array_equal(idx, cache_ref[0])
        assert x_shape == cache_ref[1]
        assert_same_bits(nn._maxpool_backward(dy, (idx, x_shape)),
                         ref_maxpool_backward(dy, cache_ref))

    @pytest.mark.parametrize("fill", POOL_FILLS)
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("shape", POOL_SHAPES, ids=str)
    def test_values_pool_matches_maxpool_forward(self, fill, layout, shape):
        x = pool_input(np.random.default_rng(len(fill) + shape[0]), fill,
                       shape)
        if layout == "channels_last":
            x = channels_last(x)
        y = nn._maxpool_values(x)
        want, _ = nn._maxpool_forward(x)
        assert y.shape == want.shape and y.dtype == want.dtype
        # by value: -0.0 == 0.0, and NaN only where want has NaN
        np.testing.assert_array_equal(y, want)
        assert y.transpose(1, 0, 2, 3).flags.c_contiguous

    def test_maxpool_first_index_wins_signed_zero(self):
        # one window per case: max value placed at several positions
        x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]],
                      [[[0.0, -0.0], [-0.0, 0.0]]],
                      [[[1.0, 2.0], [2.0, 2.0]]],
                      [[[-1.0, -1.0], [-1.0, -1.0]]]], dtype=np.float32)
        y, (idx, _) = nn._maxpool_forward(x)
        assert idx.ravel().tolist() == [0, 0, 1, 0]
        assert np.signbit(y.ravel()).tolist() == [True, False, False, True]

    def test_maxpool_nan_matches_argmax(self):
        nan, inf = np.nan, np.inf
        windows = [[1.0, nan, 2.0, nan], [nan, 5.0, 1.0, 0.0],
                   [0.0, 1.0, 2.0, nan], [-inf, -inf, nan, -inf],
                   [inf, nan, inf, 1.0]]
        x = np.array(windows, dtype=np.float32).reshape(5, 1, 2, 2)
        dy = np.arange(1, 6, dtype=np.float32).reshape(5, 1, 1, 1)
        y, cache = nn._maxpool_forward(x)
        y_ref, cache_ref = ref_maxpool_forward(x)
        assert_same_bits(y, y_ref)
        assert np.array_equal(cache[0], cache_ref[0])
        assert cache[0].ravel().tolist() == [1, 0, 3, 2, 1]
        np.testing.assert_array_equal(nn._maxpool_values(x), y)
        assert_same_bits(nn._maxpool_backward(dy, cache),
                         ref_maxpool_backward(dy, cache_ref))

    @pytest.mark.parametrize("seed, fill", [
        (0, "random"), (1, "random"), (2, "random"), (0, "tie_heavy")],
        ids=["0", "1", "2", "tie_heavy"])
    def test_gradients_match_reference_backward(self, seed, fill):
        """The reference applies each conv's ReLU before its maxpool."""
        arch = nn.default_architecture(input_shape=(3, 16, 16),
                                       num_classes=4)
        params = nn.init_params(arch, seed)
        rng = np.random.default_rng(seed)
        if fill == "random":
            images = rng.random((8, 3, 16, 16), dtype=np.float32)
        else:
            images = tie_heavy_images(rng, 8, 3, 16, 16)
        labels = rng.integers(0, 4, size=8)
        loss, grads = nn.loss_and_gradients(params, arch, images, labels)
        ref_loss, ref_grads = reference_loss_and_gradients(
            params, arch, images, labels, cf_backward)
        _, old_grads = reference_loss_and_gradients(
            params, arch, images, labels, ref_conv_backward)
        _, exact_grads = reference_loss_and_gradients(
            params, arch, images, labels, exact_conv_backward)
        assert loss == ref_loss
        for g, r, o, e in zip(grads, ref_grads, old_grads, exact_grads):
            if r is not None:
                for name in ("W", "b"):
                    assert_same_bits(g[name], r[name])
                    assert_no_farther(g[name], o[name], e[name])


def reference_loss_and_gradients(params, arch, images, labels,
                                 conv_backward):
    """The original forward/backward with the frozen kernels and the
    given conv backward, computing the input gradient of every layer
    including the first."""
    caches, a = [], images
    for layer, p in zip(arch.layers, params):
        kind = layer[0]
        if kind == "conv":
            a, cache = ref_conv_forward(a, p["W"], p["b"])
            mask = a > 0
            a = a * mask
            cache = (cache, mask)
        elif kind == "maxpool":
            a, cache = ref_maxpool_forward(a)
        elif kind == "flatten":
            cache = a.shape
            a = a.reshape(a.shape[0], -1)
        else:
            cache = a
            a = a @ p["W"] + p["b"]
            if kind == "dense_relu":
                mask = a > 0
                a = a * mask
                cache = (cache, mask)
        caches.append(cache)
    n = a.shape[0]
    zmax = a.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(a - zmax).sum(axis=1))
    loss = float(np.mean(lse - a[np.arange(n), labels]))
    delta = nn._softmax(a)
    delta[np.arange(n), labels] -= 1.0
    da = delta / n
    grads = [None if p is None else {} for p in params]
    for i in range(len(arch.layers) - 1, -1, -1):
        kind, cache = arch.layers[i][0], caches[i]
        if kind in ("dense_relu", "dense"):
            if kind == "dense_relu":
                a_in, mask = cache
                da = da * mask
            else:
                a_in = cache
            grads[i]["W"] = a_in.T @ da
            grads[i]["b"] = da.sum(axis=0)
            da = da @ params[i]["W"].T
        elif kind == "flatten":
            da = da.reshape(cache)
        elif kind == "maxpool":
            da = ref_maxpool_backward(da, cache)
        else:
            conv_cache, mask = cache
            da, grads[i]["W"], grads[i]["b"] = conv_backward(
                da * mask, params[i]["W"], conv_cache)
    return loss, grads


def ref_inference_forward(params, arch, x):
    """Frozen copy of the inference forward that ran ReLU right after
    each conv, then the argmax maxpool, and one GEMV per dense row."""
    a = x
    for (kind, *_), p in zip(arch.layers, params):
        if kind == "conv":
            a = ref_conv_forward(a, p["W"], p["b"])[0]
        elif kind == "maxpool":
            a = ref_maxpool_forward(a)[0]
        elif kind == "flatten":
            a = a.reshape(a.shape[0], -1)
        else:
            a = (a[:, None] @ p["W"])[:, 0] + p["b"]
        if kind in ("conv", "dense_relu"):
            a = a * (a > 0)
    return a


def dead_channel_params(arch, seed):
    """init_params with one all-zero output channel, W and b, per conv."""
    params = nn.init_params(arch, seed)
    for (kind, *_), p in zip(arch.layers, params):
        if kind == "conv":
            p["W"][1] = 0.0
            p["b"][1] = 0.0
    return params


class TestInferenceForward:
    # a query, a stack, a query batch and an accuracy chunk
    @pytest.mark.parametrize("n", [1, 8, 32, 64])
    @pytest.mark.parametrize("dead", [False, True], ids=["live", "dead"])
    @pytest.mark.parametrize("fill", ["random", "tie_heavy"])
    def test_matches_relu_before_pool_reference(self, fill, dead, n):
        arch = nn.default_architecture()
        params = (dead_channel_params if dead else nn.init_params)(arch, n)
        rng = np.random.default_rng(n)
        if fill == "random":
            images = rng.random((n, 3, 32, 32), dtype=np.float32)
        else:
            images = tie_heavy_images(rng, n, 3, 32, 32)
        want = ref_inference_forward(params, arch, images)
        assert_same_bits(nn.forward_batch(params, arch, images), want)
        model = nn.Model(arch=arch, params=params)
        assert_same_bits(model.query_batch(images), nn._softmax(want))

    def test_tie_heavy_images_give_signed_zero_ties(self):
        """The case above is not vacuous: the two orders give the first
        pooled activations different zero signs, equal values."""
        arch = nn.default_architecture()
        params = dead_channel_params(arch, 8)
        images = tie_heavy_images(np.random.default_rng(8), 8, 3, 32, 32)
        y = ref_conv_forward(images, params[0]["W"], params[0]["b"])[0]
        before = ref_maxpool_forward(y * (y > 0))[0]
        pooled = nn._maxpool_values(y)
        after = pooled * (pooled > 0)
        np.testing.assert_array_equal(after, before)
        assert np.any(np.signbit(after) != np.signbit(before))
