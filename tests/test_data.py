import numpy as np
import pytest

from fedaudit import data, federated
from fedaudit.data import (DatasetFormatError, build_eval_set,
                           class_templates, generate_synthetic,
                           load_cifar10, subset_per_class)
from fedaudit.tensors import ErosionConfig, erosion_sequence


def write_cifar_batch(path, images, labels):
    """Write samples in the CIFAR-10 binary batch layout.

    Images must already be uint8 channel planes, shape (N, 3, H, W).
    """
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        for img, lab in zip(images, labels):
            fh.write(bytes([int(lab)]))
            fh.write(img.tobytes())


def make_cifar_dir(tmp_path, n_train=20, n_test=10, seed=0):
    rng = np.random.default_rng(seed)
    dirpath = tmp_path / "cifar"
    dirpath.mkdir()
    train_imgs = rng.integers(0, 256, (n_train, 3, 32, 32), dtype=np.uint8)
    train_labels = rng.integers(0, 10, n_train, dtype=np.uint8)
    per_batch = int(np.ceil(n_train / 5))
    for i in range(5):
        lo = i * per_batch
        write_cifar_batch(dirpath / f"data_batch_{i + 1}.bin",
                          train_imgs[lo:lo + per_batch],
                          train_labels[lo:lo + per_batch])
    test_imgs = rng.integers(0, 256, (n_test, 3, 32, 32), dtype=np.uint8)
    test_labels = rng.integers(0, 10, n_test, dtype=np.uint8)
    write_cifar_batch(dirpath / "test_batch.bin", test_imgs, test_labels)
    return dirpath, (train_imgs, train_labels), (test_imgs, test_labels)


class TestCifarLoader:
    def test_hand_built_record(self, tmp_path):
        # one record: label 7, every pixel byte 255
        dirpath = tmp_path / "cifar"
        dirpath.mkdir()
        img = np.full((1, 3, 32, 32), 255, dtype=np.uint8)
        for name in data.CIFAR_TRAIN_FILES + data.CIFAR_TEST_FILES:
            write_cifar_batch(dirpath / name, img, [7])
        train, test = load_cifar10(dirpath)
        assert len(train) == 5
        assert train.labels[0] == 7
        assert np.all(train.images[0] == 1.0)

    def test_round_trip_bit_exact(self, tmp_path):
        dirpath, (imgs, labels), _ = make_cifar_dir(tmp_path)
        train, _ = load_cifar10(dirpath)
        expected = imgs.astype(np.float32) / 255.0
        assert train.images.tobytes() == expected.tobytes()
        assert np.array_equal(train.labels, labels)

    def test_split_sizes_and_ids_disjoint(self, tmp_path):
        dirpath, _, _ = make_cifar_dir(tmp_path, n_train=25, n_test=10)
        train, test = load_cifar10(dirpath)
        assert len(train) == 25
        assert len(test) == 10
        assert not set(train.ids) & set(test.ids)

    def test_missing_file_named(self, tmp_path):
        dirpath, _, _ = make_cifar_dir(tmp_path)
        (dirpath / "data_batch_3.bin").unlink()
        with pytest.raises(DatasetFormatError, match="data_batch_3"):
            load_cifar10(dirpath)

    def test_truncated_record_reports_offset(self, tmp_path):
        dirpath, _, _ = make_cifar_dir(tmp_path)
        path = dirpath / "data_batch_1.bin"
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        offset = (len(raw) - 100) // 3073 * 3073
        with pytest.raises(DatasetFormatError, match=str(offset)):
            load_cifar10(dirpath)

    def test_label_byte_out_of_range(self, tmp_path):
        dirpath, _, _ = make_cifar_dir(tmp_path)
        path = dirpath / "data_batch_2.bin"
        raw = bytearray(path.read_bytes())
        raw[0] = 11
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="label byte 11"):
            load_cifar10(dirpath)


class TestSynthetic:
    def test_same_seed_identical(self):
        a = generate_synthetic(4, 5, (3, 8, 8), seed=1)
        b = generate_synthetic(4, 5, (3, 8, 8), seed=1)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_different_streams_differ_but_share_templates(self):
        a = generate_synthetic(4, 5, (3, 8, 8), seed=1, stream=0)
        b = generate_synthetic(4, 5, (3, 8, 8), seed=1, stream=1)
        assert a.images.tobytes() != b.images.tobytes()

    def test_per_class_zero_empty(self):
        ds = generate_synthetic(3, 0, (3, 8, 8), seed=0)
        assert len(ds) == 0

    def test_values_in_unit_interval(self):
        ds = generate_synthetic(5, 10, (3, 16, 16), seed=2)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_labels_and_ids(self):
        ds = generate_synthetic(3, 4, (3, 8, 8), seed=0, id_base=500)
        assert sorted(np.unique(ds.labels)) == [0, 1, 2]
        assert list(ds.ids) == list(range(500, 512))

    def test_templates_class_separable_after_full_erosion(self):
        classes = 10
        templates = class_templates(classes, (3, 32, 32), seed=0)
        cfg = ErosionConfig(steps=5)
        means = []
        for cls in range(classes):
            final = erosion_sequence(templates[cls], cfg)[-1]
            means.append(final[:, 0, 0])
        means = np.array(means)
        for i in range(classes):
            for j in range(i + 1, classes):
                assert np.abs(means[i] - means[j]).max() > 0.05

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 5)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(3, 5, (3, 1, 8))


class TestSubsetPerClass:
    def test_balanced_and_deterministic(self):
        ds = generate_synthetic(4, 20, (3, 8, 8), seed=0)
        sub = subset_per_class(ds, 5, seed=3)
        assert len(sub) == 20
        for cls in range(4):
            assert int((sub.labels == cls).sum()) == 5
        sub2 = subset_per_class(ds, 5, seed=3)
        assert np.array_equal(sub.ids, sub2.ids)

    def test_insufficient_class_rejected(self):
        ds = generate_synthetic(4, 3, (3, 8, 8), seed=0)
        with pytest.raises(ValueError):
            subset_per_class(ds, 5, seed=0)


class TestEvalSet:
    def setup_method(self):
        self.train = generate_synthetic(4, 25, (3, 8, 8), seed=0)
        self.test = generate_synthetic(4, 25, (3, 8, 8), seed=0, stream=1,
                                       id_base=1_000_000)
        self.shards = federated.partition(self.train, 5, seed=0)

    def test_balanced_counts(self):
        es = build_eval_set(self.shards, self.test, 4, 20, seed=1)
        assert len(es.members) == 20
        assert len(es.non_members) == 20
        per_client = {}
        for _, cid in es.members:
            per_client[cid] = per_client.get(cid, 0) + 1
        assert all(v == 4 for v in per_client.values())
        assert len(per_client) == 5

    def test_no_leakage(self):
        es = build_eval_set(self.shards, self.test, 4, 20, seed=1)
        member_ids = {sid for sid, _ in es.members}
        shard_ids = set()
        for s in self.shards:
            shard_ids |= {int(i) for i in s.ids}
        assert member_ids <= shard_ids
        assert not set(es.non_members) & shard_ids

    def test_members_carry_their_shard_index_as_client_id(self):
        es = build_eval_set(self.shards, self.test, 4, 20, seed=1)
        for sid, cid in es.members:
            assert sid in set(self.shards[cid].ids.tolist())

    def test_deterministic(self):
        a = build_eval_set(self.shards, self.test, 4, 20, seed=1)
        b = build_eval_set(self.shards, self.test, 4, 20, seed=1)
        assert a.members == b.members
        assert a.non_members == b.non_members

    def test_unbalanced_request_rejected(self):
        with pytest.raises(ValueError):
            build_eval_set(self.shards, self.test, 4, 25, seed=1)

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError, match="members_per_client must be"):
            build_eval_set(self.shards, self.test, 0, 0, seed=1)

    def test_insufficient_member_pool_rejected(self):
        with pytest.raises(ValueError):
            build_eval_set(self.shards, self.test, 30, 150, seed=1)

    def test_insufficient_nonmember_pool_rejected(self):
        small_test = self.test.subset(range(10))
        with pytest.raises(ValueError):
            build_eval_set(self.shards, small_test, 4, 20, seed=1)
