"""Dataset ingestion and membership-evaluation-set construction.

Supports the CIFAR-10 binary batch format (3073-byte records: one label
byte, then 3x1024 channel planes R/G/B, row-major) and a seeded synthetic
generator used for fast tests.  Pixels are scaled by exactly 1/255 into
[0, 1]; no mean/std normalization anywhere.
"""

import os
from dataclasses import dataclass

import numpy as np

CIFAR_SHAPE = (3, 32, 32)
CIFAR_CLASSES = 10
CIFAR_RECORD_BYTES = 1 + int(np.prod(CIFAR_SHAPE))
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]
CIFAR_TRAIN_SIZE = 50_000
CIFAR_TEST_SIZE = 10_000
CIFAR_PER_CLASS = CIFAR_TRAIN_SIZE // CIFAR_CLASSES

PATTERN_BANK = 32
PATTERNS_PER_SAMPLE = 4


class DatasetFormatError(ValueError):
    pass


@dataclass
class LabeledDataset:
    images: np.ndarray        # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray        # (N,) int64
    ids: np.ndarray           # (N,) stable sample ids, unique within split
    num_classes: int

    def __len__(self):
        return len(self.labels)

    def subset(self, indices):
        idx = np.asarray(indices)
        return LabeledDataset(self.images[idx], self.labels[idx],
                              self.ids[idx], self.num_classes)


@dataclass
class EvalSet:
    """Balanced member/non-member sample pools for attack evaluation."""

    members: list             # (sample_id, client_id) pairs
    non_members: list         # sample ids from the held-out split


def _parse_cifar_file(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        offset = (len(raw) // CIFAR_RECORD_BYTES) * CIFAR_RECORD_BYTES
        raise DatasetFormatError(
            f"{path}: truncated record at byte offset {offset} "
            f"(file size {len(raw)} not a multiple of {CIFAR_RECORD_BYTES})")
    n = len(raw) // CIFAR_RECORD_BYTES
    records = np.frombuffer(raw, dtype=np.uint8).reshape(n, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels >= CIFAR_CLASSES)[0]
    if bad.size:
        raise DatasetFormatError(
            f"{path}: record {bad[0]} has label byte {labels[bad[0]]} "
            f"> {CIFAR_CLASSES - 1}")
    images = records[:, 1:].reshape(n, *CIFAR_SHAPE)
    return images.astype(np.float32) / 255.0, labels


def _load_split(path, filenames, id_base=0):
    images, labels = [], []
    for name in filenames:
        full = os.path.join(path, name)
        if not os.path.exists(full):
            raise DatasetFormatError(f"missing CIFAR-10 batch file: {full}")
        imgs, labs = _parse_cifar_file(full)
        images.append(imgs)
        labels.append(labs)
    images = np.concatenate(images)
    labels = np.concatenate(labels)
    ids = np.arange(id_base, id_base + len(labels))
    return LabeledDataset(images, labels, ids, CIFAR_CLASSES)


def load_cifar10(path):
    """Load the standard binary batches; returns (train, test).

    Test-split sample ids are offset by 1_000_000 so member and
    non-member ids never collide.
    """
    train = _load_split(path, CIFAR_TRAIN_FILES)
    test = _load_split(path, CIFAR_TEST_FILES, id_base=1_000_000)
    return train, test


def check_synthetic(classes, dims, template_strength):
    """Raise unless generate_synthetic can build from these: at least 2
    classes, dims [C, H, W] with C >= 1 and even H, W >= 2, and a
    [low, high] template_strength."""
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if len(dims) != 3:
        raise ValueError(
            f"dims must be [channels, height, width], got {list(dims)}")
    c, h, w = dims
    if c < 1 or h < 2 or w < 2:
        raise ValueError(
            f"dims need >= 1 channel and sides >= 2, got {list(dims)}")
    if h % 2 or w % 2:
        raise ValueError(
            f"dims height and width must be even, got {list(dims)}")
    if len(template_strength) != 2:
        raise ValueError(f"template_strength must be [low, high], "
                         f"got {list(template_strength)}")


def generate_synthetic(classes, per_class, dims=(3, 32, 32), seed=0,
                       noise_amp=0.25, template_strength=(1.0, 1.0),
                       stream=0, id_base=0):
    """Seeded synthetic dataset: per-class smooth templates plus
    per-sample high-frequency detail.

    The template gives each class coarse, low-frequency structure with
    distinct per-channel means, so a heavily downsampled image stays
    class-separable.  The fine detail is a signed combination of
    PATTERNS_PER_SAMPLE patterns drawn from a bank of PATTERN_BANK
    checkerboard-modulated random patterns shared by every sample (and
    every stream).  Two properties matter:

    - each pattern averages to exactly zero over every aligned 2x2
      block, so a single average-pooling step removes the detail
      entirely while leaving the smooth template intact;
    - because the bank is shared, a held-out sample's combination is a
      fresh mix of familiar directions whose memorized label
      associations tend to cancel, rather than an arbitrary vector the
      model has never seen.

    `template_strength` draws a per-sample factor from the given range
    scaling the coarse signal toward the neutral 0.5 image:
    weakly-templated samples are only classifiable through their
    memorized detail, which is what opens a train/test generalization
    gap.  `stream` selects an independent draw on top of the same
    templates and pattern bank, which is how a held-out pool from the
    same distribution is produced.
    """
    check_synthetic(classes, dims, template_strength)
    c, h, w = dims
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13, stream]))
    templates = class_templates(classes, dims, seed)
    bank = noise_pattern_bank(PATTERN_BANK, dims, seed)
    n = classes * per_class
    images = np.empty((n, c, h, w), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    lo_s, hi_s = template_strength
    scale = noise_amp / np.sqrt(PATTERNS_PER_SAMPLE)
    for cls in range(classes):
        lo = cls * per_class
        for i in range(per_class):
            alpha = rng.uniform(lo_s, hi_s)
            chosen = rng.choice(PATTERN_BANK, PATTERNS_PER_SAMPLE,
                                replace=False)
            signs = rng.choice([-1.0, 1.0], PATTERNS_PER_SAMPLE)
            noise = scale * np.einsum("p,pchw->chw",
                                      signs, bank[chosen])
            coarse = 0.5 + alpha * (templates[cls] - 0.5)
            images[lo + i] = np.clip(coarse + noise, 0.0, 1.0)
            labels[lo + i] = cls
    ids = np.arange(id_base, id_base + n)
    return LabeledDataset(images, labels, ids, classes)


def noise_pattern_bank(count, dims=(3, 32, 32), seed=0):
    """The shared bank of high-frequency patterns used by the generator.

    Each pattern is a random +/-1 field at half resolution, modulated by
    a [[1,-1],[-1,1]] cell so every aligned 2x2 block sums to zero.
    """
    c, h, w = dims
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    base = rng.choice([-1.0, 1.0],
                      size=(count, c, h // 2, w // 2)).astype(np.float32)
    cell = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.float32)
    return np.kron(base, cell)


def class_templates(classes, dims=(3, 32, 32), seed=0):
    """The smooth per-class base images the generator perturbs."""
    c, h, w = dims
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    yy = np.linspace(0, 2 * np.pi, h, dtype=np.float64)[:, None]
    xx = np.linspace(0, 2 * np.pi, w, dtype=np.float64)[None, :]
    # distinct per-channel means: base-L digits of the class index, so any
    # two classes differ by >= 0.4/(L-1) in at least one channel
    levels = max(2, int(np.ceil(classes ** (1.0 / c))))
    templates = np.empty((classes, c, h, w), dtype=np.float32)
    for cls in range(classes):
        for ch in range(c):
            digit = (cls // levels ** ch) % levels
            mean = 0.3 + 0.4 * digit / (levels - 1)
            fy, fx = rng.integers(1, 3, size=2)
            phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
            wave = np.cos(fy * yy + phase_y) * np.cos(fx * xx + phase_x)
            templates[cls, ch] = mean + 0.12 * wave
    return np.clip(templates, 0.0, 1.0)


def subset_per_class(dataset, per_class, seed):
    """Seeded class-balanced subset (desk-scale CIFAR-10 substitute)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 29]))
    chosen = []
    for cls in range(dataset.num_classes):
        pool = np.nonzero(dataset.labels == cls)[0]
        if len(pool) < per_class:
            raise ValueError(
                f"class {cls} has {len(pool)} samples, need {per_class}")
        chosen.extend(sorted(rng.choice(pool, per_class, replace=False)))
    return dataset.subset(chosen)


def split_sizes(ds):
    """(train, test) sample counts of a dataset config section, known
    before either split is built; ValueError for a CIFAR-10
    subset_per_class outside [0, CIFAR_PER_CLASS]."""
    if ds["type"] == "synthetic":
        return (ds["classes"] * ds["per_class"],
                ds["classes"] * ds["test_per_class"])
    per_class = ds.get("subset_per_class", CIFAR_PER_CLASS)
    if not 0 <= per_class <= CIFAR_PER_CLASS:
        raise ValueError(
            f"subset_per_class must be between 0 and {CIFAR_PER_CLASS}, "
            f"CIFAR-10's training images per class, got {per_class}")
    return CIFAR_CLASSES * per_class, CIFAR_TEST_SIZE


def check_eval_counts(num_clients, members_per_client, total_nonmembers,
                      smallest_shard, test_size):
    """Raise unless the eval set has members, is balanced and fits the
    data: each client gives members_per_client >= 1 members from its
    shard, their total equals total_nonmembers, and the test split
    holds that many."""
    if members_per_client < 1:
        raise ValueError(
            f"members_per_client must be >= 1, got {members_per_client}")
    if members_per_client * num_clients != total_nonmembers:
        raise ValueError(
            f"total_nonmembers must be {num_clients} clients x "
            f"{members_per_client} members, got {total_nonmembers}; "
            f"eval set must be balanced")
    if members_per_client > smallest_shard:
        raise ValueError(
            f"members_per_client must be <= {smallest_shard}, the smallest "
            f"client shard, got {members_per_client}")
    if total_nonmembers > test_size:
        raise ValueError(
            f"total_nonmembers must be <= {test_size}, the test split "
            f"size, got {total_nonmembers}")


def build_eval_set(shards, test_set, members_per_client, total_nonmembers,
                   seed):
    """Client-balanced members (shard i is client i's) vs held-out
    non-members, deterministic under the seed; see check_eval_counts for
    the counts it accepts."""
    check_eval_counts(len(shards), members_per_client, total_nonmembers,
                      min(map(len, shards), default=0), len(test_set))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    members = []
    for cid, shard in enumerate(shards):
        picks = rng.choice(len(shard), members_per_client, replace=False)
        for i in sorted(picks):
            members.append((int(shard.ids[i]), cid))
    picks = rng.choice(len(test_set), total_nonmembers, replace=False)
    non_members = [int(test_set.ids[i]) for i in sorted(picks)]
    return EvalSet(members=members, non_members=non_members)
