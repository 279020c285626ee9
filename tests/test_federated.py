import numpy as np
import pytest

from fedaudit import data, federated, nn
from fedaudit.federated import FedConfig, fedavg_aggregate, partition


def toy_dataset(n=100, seed=0, classes=4, dims=(1, 4, 4)):
    rng = np.random.default_rng(seed)
    return data.LabeledDataset(
        images=rng.random((n, *dims)).astype(np.float32),
        labels=rng.integers(0, classes, size=n),
        ids=np.arange(n), num_classes=classes, split="train")


def toy_arch(classes=4, dims=(1, 4, 4)):
    return nn.ArchitectureDescriptor(
        input_shape=dims,
        layers=(("flatten",), ("dense_relu", 8), ("dense", classes)),
        num_classes=classes)


def scalar_params(value):
    return [{"W": np.array([[value]], dtype=np.float64),
             "b": np.array([0.0])}]


class TestPartition:
    def test_even_division(self):
        shards = partition(toy_dataset(100), 10, seed=0)
        assert len(shards) == 10
        assert all(len(s.labels) == 10 for s in shards)

    def test_single_client_gets_everything(self):
        ds = toy_dataset(50)
        shards = partition(ds, 1, seed=3)
        assert len(shards) == 1
        assert sorted(shards[0].sample_ids) == list(range(50))

    def test_uneven_sizes_and_exhaustive(self):
        shards = partition(toy_dataset(103), 10, seed=1)
        sizes = sorted((len(s.labels) for s in shards), reverse=True)
        assert sizes == [11, 11, 11] + [10] * 7
        ids = np.concatenate([s.sample_ids for s in shards])
        assert sorted(ids) == list(range(103))

    def test_disjoint(self):
        shards = partition(toy_dataset(60), 7, seed=2)
        seen = set()
        for s in shards:
            ids = set(int(i) for i in s.sample_ids)
            assert not ids & seen
            seen |= ids

    def test_deterministic_under_seed(self):
        ds = toy_dataset(40)
        a = partition(ds, 4, seed=9)
        b = partition(ds, 4, seed=9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.sample_ids, sb.sample_ids)

    def test_too_many_clients_rejected(self):
        with pytest.raises(ValueError):
            partition(toy_dataset(5), 6, seed=0)


class TestAggregate:
    def test_identical_params_unchanged(self):
        p = scalar_params(1.5)
        out = fedavg_aggregate([p, p, p], [10, 10, 10])
        assert out[0]["W"][0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_equal_sizes_unweighted_mean(self):
        out = fedavg_aggregate([scalar_params(0.0), scalar_params(2.0)],
                               [5, 5])
        assert out[0]["W"][0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_weighted_mean(self):
        out = fedavg_aggregate([scalar_params(0.0), scalar_params(4.0)],
                               [1, 3])
        assert out[0]["W"][0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        plist = [scalar_params(v) for v in rng.random(5)]
        sizes = [3, 1, 4, 1, 5]
        a = fedavg_aggregate(plist, sizes)
        order = [4, 2, 0, 3, 1]
        b = fedavg_aggregate([plist[i] for i in order],
                             [sizes[i] for i in order])
        assert a[0]["W"][0, 0] == pytest.approx(b[0]["W"][0, 0], abs=1e-12)

    def test_equal_size_matches_unweighted_mean_full_model(self):
        arch = toy_arch()
        plist = [nn.init_params(arch, s) for s in range(4)]
        out = fedavg_aggregate(plist, [7, 7, 7, 7])
        for i, p in enumerate(out):
            if p is None:
                continue
            mean = np.mean([q[i]["W"] for q in plist], axis=0)
            assert np.abs(p["W"] - mean).max() < 1e-7

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([scalar_params(1.0)], [0])

    @pytest.mark.parametrize("other", [
        [{"W": np.zeros((2, 2)), "b": np.zeros(2)}],
        [{"W": np.zeros((1, 1)), "b": np.zeros(3)}],
        scalar_params(1.0) + scalar_params(2.0),
    ], ids=["weight_shape", "bias_shape", "extra_layer"])
    def test_shape_mismatch_rejected(self, other):
        a = scalar_params(1.0)
        with pytest.raises(nn.ShapeMismatchError):
            fedavg_aggregate([a, other], [1, 1])


@pytest.mark.parametrize("field, value, message", [
    ("num_clients", 0, "num_clients must be >= 1, got 0"),
    ("rounds", -1, "rounds must be >= 0, got -1"),
    ("local_epochs", -1, "local_epochs must be >= 0, got -1"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("lr", -0.5, "lr must be >= 0, got -0.5"),
])
def test_fed_config_range_names_field(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FedConfig(**{field: value})


class TestLocalTrain:
    def test_zero_epochs_returns_broadcast_params(self):
        ds = toy_dataset(20)
        arch = toy_arch()
        params = nn.init_params(arch, 0)
        shard = partition(ds, 2, seed=0)[0]
        cfg = FedConfig(num_clients=2, rounds=1, local_epochs=0, seed=0)
        out, _ = federated.local_train(params, arch, shard, cfg)
        assert out is params

    def test_zero_lr_leaves_params_unchanged(self):
        ds = toy_dataset(20)
        arch = toy_arch()
        params = nn.init_params(arch, 0)
        shard = partition(ds, 2, seed=0)[0]
        cfg = FedConfig(num_clients=2, rounds=1, local_epochs=2, lr=0.0,
                        seed=0)
        out, _ = federated.local_train(params, arch, shard, cfg)
        for p, q in zip(params, out):
            if p is not None:
                assert np.array_equal(p["W"], q["W"])

    def test_single_sample_epoch_equals_one_sgd_step(self):
        ds = toy_dataset(1)
        arch = toy_arch()
        params = nn.init_params(arch, 0)
        shard = partition(ds, 1, seed=0)[0]
        cfg = FedConfig(num_clients=1, rounds=1, local_epochs=1,
                        batch_size=1, lr=0.1, seed=0)
        out, _ = federated.local_train(params, arch, shard, cfg)
        _, grads = nn.loss_and_gradients(params, arch, shard.images,
                                         shard.labels)
        expected = nn.sgd_step(params, grads, 0.1)
        for p, q in zip(expected, out):
            if p is not None:
                assert np.array_equal(p["W"], q["W"])


class TestRunFederatedTraining:
    def test_zero_rounds_returns_initial_params(self):
        ds = toy_dataset(20)
        arch = toy_arch()
        cfg = FedConfig(num_clients=2, rounds=0, seed=4)
        params, log = federated.run_federated_training(ds, arch, cfg)
        init = nn.init_params(arch, 4)
        assert log == []
        for p, q in zip(init, params):
            if p is not None:
                assert np.array_equal(p["W"], q["W"])

    def test_single_client_equals_centralized_sgd(self):
        ds = toy_dataset(24)
        arch = toy_arch()
        cfg = FedConfig(num_clients=1, rounds=3, local_epochs=2,
                        batch_size=8, lr=0.05, seed=6)
        fed_params, _ = federated.run_federated_training(ds, arch, cfg)

        # independent centralized loop over the same permuted shard,
        # composing nn-core primitives directly
        shard = federated.partition(ds, 1, cfg.seed)[0]
        params = nn.init_params(arch, cfg.seed)
        for rnd in range(cfg.rounds):
            rng = np.random.default_rng(
                federated.shuffle_seed(cfg.seed, rnd, 0))
            for _ in range(cfg.local_epochs):
                order = rng.permutation(len(shard.labels))
                for lo in range(0, len(order), cfg.batch_size):
                    idx = order[lo:lo + cfg.batch_size]
                    _, grads = nn.loss_and_gradients(
                        params, arch, shard.images[idx], shard.labels[idx])
                    params = nn.sgd_step(params, grads, cfg.lr)
        for p, q in zip(params, fed_params):
            if p is not None:
                assert np.abs(p["W"] - q["W"]).max() < 1e-6
                assert np.abs(p["b"] - q["b"]).max() < 1e-6

    def test_deterministic_for_fixed_config(self):
        ds = toy_dataset(30)
        arch = toy_arch()
        cfg = FedConfig(num_clients=3, rounds=2, local_epochs=1,
                        batch_size=8, seed=8)
        a, _ = federated.run_federated_training(ds, arch, cfg)
        b, _ = federated.run_federated_training(ds, arch, cfg)
        for pa, pb in zip(a, b):
            if pa is not None:
                assert pa["W"].tobytes() == pb["W"].tobytes()

    def test_worker_count_does_not_change_numerics(self):
        ds = toy_dataset(30)
        arch = toy_arch()
        cfg = FedConfig(num_clients=3, rounds=2, local_epochs=1,
                        batch_size=8, seed=8)
        a, _ = federated.run_federated_training(ds, arch, cfg, workers=1)
        b, _ = federated.run_federated_training(ds, arch, cfg, workers=3)
        for pa, pb in zip(a, b):
            if pa is not None:
                assert pa["W"].tobytes() == pb["W"].tobytes()

    def test_log_rows_have_expected_fields(self):
        ds = toy_dataset(20)
        test = toy_dataset(10, seed=1)
        arch = toy_arch()
        cfg = FedConfig(num_clients=2, rounds=2, local_epochs=1, seed=0)
        _, log = federated.run_federated_training(ds, arch, cfg,
                                                  test_set=test)
        assert [row["round"] for row in log] == [1, 2]
        for row in log:
            assert 0.0 <= row["train_acc"] <= 1.0
            assert 0.0 <= row["test_acc"] <= 1.0
            assert np.isfinite(row["mean_client_loss"])


@pytest.fixture
def blas_threads():
    """Reads the BLAS thread count, which is 2 for the test."""
    api = nn._blas_thread_api()
    if api is None:
        pytest.skip("no scipy-openblas thread-count symbols in this numpy")
    get, set_ = api
    before = get()
    set_(2)
    yield get
    set_(before)


def count_blas_threads_in_local_train(monkeypatch, get):
    """Record the BLAS thread count at every local_train call."""
    seen = []
    real = federated.local_train

    def spy(*args, **kwargs):
        seen.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(federated, "local_train", spy)
    return seen


def train_params(workers):
    cfg = FedConfig(num_clients=3, rounds=2, local_epochs=1, batch_size=8,
                    seed=8)
    params, _ = federated.run_federated_training(
        toy_dataset(30), toy_arch(), cfg, workers=workers)
    return [None if p is None else {k: a.tobytes() for k, a in p.items()}
            for p in params]


class TestSingleBlasThread:
    def test_restores_count_after_block(self, blas_threads):
        with nn.single_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restores_count_after_exception(self, blas_threads):
        with pytest.raises(RuntimeError, match="inside the block"):
            with nn.single_blas_thread():
                raise RuntimeError("inside the block")
        assert blas_threads() == 2

    def test_nested_use_restores_outer_count(self, blas_threads):
        with nn.single_blas_thread():
            with nn.single_blas_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    @pytest.mark.parametrize("workers, in_client", [(1, 2), (2, 1)])
    def test_client_fan_out_runs_one_blas_thread(
            self, blas_threads, monkeypatch, workers, in_client):
        seen = count_blas_threads_in_local_train(monkeypatch, blas_threads)
        train_params(workers)
        # 3 clients x 2 rounds; 1 worker keeps the caller's count
        assert seen == [in_client] * 6
        assert blas_threads() == 2

    def test_missing_blas_api_is_a_no_op(self, blas_threads, monkeypatch):
        monkeypatch.setattr(nn, "_blas_thread_api", lambda: None)
        with nn.single_blas_thread():
            assert blas_threads() == 2
        serial = train_params(1)
        seen = count_blas_threads_in_local_train(monkeypatch, blas_threads)
        assert train_params(2) == serial
        assert seen == [2] * 6
