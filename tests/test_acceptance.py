"""Release acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the quantity it checked,
so `pytest tests/test_acceptance.py -v -s` reads as a checklist.  The
end-to-end checks (7-9) train the shipped default configuration for
three seeds through the real CLI; that fixture is the slow part of the
suite (a few minutes total).
"""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from fedaudit import attacks, cli, data, federated, metrics, nn, tensors

from test_nn import (tiny_arch, params_f64, flatten_params,
                     finite_difference_grad)


def verdict(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label} {detail}".rstrip())
    assert ok, f"{label}: {detail}"


class _StubModel:
    """Query facade stub replaying a fixed probability sequence."""

    def __init__(self, probs):
        self.probs = probs
        self.i = 0
        self.query_count = 0

    def query(self, image):
        self.query_count += 1
        out = self.probs[min(self.i, len(self.probs) - 1)]
        self.i += 1
        return out


# ---------------------------------------------------------------------------
# shared end-to-end fixture: default config, three seeds, real CLI


SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    runs = {}
    for seed in SEEDS:
        out = str(root / f"seed{seed}")
        assert cli.main(["train", "--out", out,
                         "--seed", str(seed)]) == 0
        ckpt = os.path.join(out, "model.ckpt")
        assert cli.main(["attack", "--out", out, "--seed", str(seed),
                         "--checkpoint", ckpt]) == 0
        assert cli.main(["ablate", "--out", out, "--seed", str(seed),
                         "--checkpoint", ckpt]) == 0
        with open(os.path.join(out, "training_log.csv")) as fh:
            rows = [r for r in csv.DictReader(
                line for line in fh if not line.startswith("# "))]
        report = json.loads(Path(out, "report.json").read_text())
        with open(os.path.join(out, "ablation.csv")) as fh:
            ablation = {r["upsample_mode"]: float(r["auc_resmia"])
                        for r in csv.DictReader(
                            line for line in fh
                            if not line.startswith("# "))}
        runs[seed] = {
            "out": out,
            "ckpt": ckpt,
            "train_acc": float(rows[-1]["train_acc"]),
            "test_acc": float(rows[-1]["test_acc"]),
            "auc": {name: report["attacks"][name]["auc"]
                    for name in attacks.ATTACK_NAMES},
            "per_client": report["per_client_auc"],
            "client_auc_std": report["client_auc_std"],
            "ablation": ablation,
        }
    return runs


# ---------------------------------------------------------------------------
# 1-6: component-level guarantees


def test_01_sum_and_closed_form_decay_scores_agree():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        steps = int(rng.integers(1, 9))
        probs = rng.random(steps + 1)
        trace = attacks.ConfidenceTrace(
            predicted_class=0, target_probs=probs,
            initial_probs=np.array([1.0]))
        worst = max(worst, abs(attacks.resmia_score(trace)
                               - attacks.resmia_score_closed(trace)))
    verdict("decay score sum form == closed form over 1000 traces",
            worst < 1e-12, f"max |diff| = {worst:.2e}")


def test_02_five_step_erosion_collapses_to_channel_means():
    rng = np.random.default_rng(1)
    img = rng.random((3, 32, 32), dtype=np.float32)
    cfg = tensors.ErosionConfig(steps=5, pool_factor=2,
                                upsample_mode="nearest")
    final = tensors.erosion_sequence(img, cfg)[-1]
    means = img.reshape(3, -1).mean(axis=1)
    worst = float(np.abs(final - means[:, None, None]).max())
    verdict("5-step erosion leaves every pixel at its channel mean",
            worst < 1e-5, f"max |pixel - mean| = {worst:.2e}")


def test_03_analytic_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(20):
        arch = tiny_arch()
        params = params_f64(arch, seed)
        rng = np.random.default_rng(seed + 100)
        images = rng.random((3, 2, 4, 4))
        labels = rng.integers(0, 3, size=3)
        _, grads = nn.loss_and_gradients(params, arch, images, labels)
        analytic, _ = flatten_params(grads)
        numeric = finite_difference_grad(arch, params, images, labels)
        denom = np.maximum(np.abs(numeric), 1e-4)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    verdict("analytic gradients match central differences over 20 seeds",
            worst < 1e-3, f"max relative error = {worst:.2e}")


def test_04_trapezoid_auc_matches_rank_statistic():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        scores = rng.normal(size=n)
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        fast = metrics.auc(metrics.roc_curve(list(zip(scores, labels))))
        pos = scores[labels]
        neg = scores[~labels]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        slow = wins / (len(pos) * len(neg))
        worst = max(worst, abs(fast - slow))
    verdict("trapezoid AUC == pairwise rank statistic over 100 score sets",
            worst < 1e-9, f"max |diff| = {worst:.2e}")


def test_05_federation_identities_hold():
    ds = data.generate_synthetic(3, 8, (3, 8, 8), seed=4)
    arch = nn.ArchitectureDescriptor(
        input_shape=(3, 8, 8),
        layers=(("conv", 2), ("maxpool",), ("flatten",),
                ("dense_relu", 8), ("dense", 3)),
        num_classes=3)
    cfg = federated.FedConfig(num_clients=1, rounds=2, local_epochs=2,
                              batch_size=8, lr=0.05, seed=6)
    fed_params, _ = federated.run_federated_training(ds, arch, cfg)
    shard = federated.partition(ds, 1, cfg.seed)[0]
    params = nn.init_params(arch, cfg.seed)
    for rnd in range(cfg.rounds):
        rng = np.random.default_rng(federated.shuffle_seed(cfg.seed, rnd, 0))
        for _ in range(cfg.local_epochs):
            order = rng.permutation(len(shard.labels))
            for lo in range(0, len(order), cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                _, grads = nn.loss_and_gradients(
                    params, arch, shard.images[idx], shard.labels[idx])
                params = nn.sgd_step(params, grads, cfg.lr)
    worst_central = max(
        max(np.abs(p["W"] - q["W"]).max(), np.abs(p["b"] - q["b"]).max())
        for p, q in zip(params, fed_params) if p is not None)

    clients = [params_f64(arch, s) for s in range(3)]
    agg = federated.fedavg_aggregate(clients, [7, 7, 7])
    worst_mean = 0.0
    for i, layer in enumerate(agg):
        if layer is None:
            continue
        for key in ("W", "b"):
            mean = np.mean([c[i][key] for c in clients], axis=0)
            worst_mean = max(worst_mean,
                             float(np.abs(layer[key] - mean).max()))
    verdict("single-client training == centralized; equal-size "
            "aggregation == mean",
            worst_central < 1e-6 and worst_mean < 1e-7,
            f"centralized diff = {worst_central:.2e}, "
            f"mean diff = {worst_mean:.2e}")


def test_06_query_budget_is_k_plus_one_versus_one():
    rng = np.random.default_rng(3)
    ok = True
    for steps in (1, 3, 5):
        probs = rng.random((steps + 1, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        model = _StubModel(probs)
        cfg = tensors.ErosionConfig(steps=steps, pool_factor=2,
                                    upsample_mode="nearest")
        trace = attacks.confidence_trace(
            model, rng.random((3, 32, 32), dtype=np.float32), cfg)
        ok = ok and model.query_count == steps + 1
        single = _StubModel(probs)
        attacks.loss_attack_score(single,
                                  np.zeros((3, 32, 32), dtype=np.float32))
        ok = ok and single.query_count == 1
        ok = ok and len(trace.target_probs) == steps + 1
    verdict("erosion probe issues exactly K+1 queries, baselines 1", ok)


# ---------------------------------------------------------------------------
# 7-9: end-to-end behaviour of the shipped default configuration


def test_07_decay_attack_leads_baselines_on_overfit_target(desk_runs):
    train = np.mean([r["train_acc"] for r in desk_runs.values()])
    gap = np.mean([r["train_acc"] - r["test_acc"]
                   for r in desk_runs.values()])
    mean_auc = {name: np.mean([r["auc"][name]
                               for r in desk_runs.values()])
                for name in attacks.ATTACK_NAMES}
    ok = (train >= 0.95 and gap >= 0.15
          and mean_auc["resmia"] >= 0.60
          and mean_auc["resmia"] > mean_auc["loss"]
          and mean_auc["loss"] > 0.5
          and mean_auc["entropy"] > 0.5)
    verdict("3-seed means: decay AUC >= 0.60 and > loss > 0.5, "
            "entropy > 0.5, train >= 0.95, gap >= 0.15", ok,
            f"train = {train:.3f}, gap = {gap:.3f}, "
            + ", ".join(f"{k} = {v:.3f}" for k, v in mean_auc.items()))


def test_08_nearest_upsampling_scores_at_least_bilinear(desk_runs):
    near = np.mean([r["ablation"]["nearest"] for r in desk_runs.values()])
    bilin = np.mean([r["ablation"]["bilinear"] for r in desk_runs.values()])
    verdict("3-seed mean decay AUC: nearest >= bilinear", near >= bilin,
            f"nearest = {near:.3f}, bilinear = {bilin:.3f}")


def test_09_per_client_auc_map_complete_and_tight(desk_runs):
    ok = True
    spreads = []
    for run in desk_runs.values():
        per_client = run["per_client"]
        ok = ok and len(per_client) == cli.DEFAULT_CONFIG["fed"][
            "num_clients"]
        ok = ok and isinstance(run["client_auc_std"], float)
        values = list(per_client.values())
        spreads.append(max(values) - min(values))
    worst = max(spreads)
    verdict("per-client AUC map complete with spread <= 0.15 "
            "on every seed", ok and worst <= 0.15,
            f"max spread = {worst:.3f}")


# ---------------------------------------------------------------------------
# 10-11: operational guarantees


def test_10_erosion_probe_overhead_ratio(desk_runs):
    run = desk_runs[SEEDS[0]]
    out = os.path.join(run["out"], "timing5")
    assert cli.main(["attack", "--out", out, "--seed", str(SEEDS[0]),
                     "--checkpoint", run["ckpt"],
                     "--erosion-steps", "5"]) == 0
    timing = json.loads(Path(out, "report.json").read_text())["timing"]
    ratio = timing["ratio"]
    verdict("5-step probe costs 4x-8x a single forward pass",
            4.0 <= ratio <= 8.0, f"ratio = {ratio:.2f}x")


def test_11_identical_config_reproduces_scores_byte_for_byte(desk_runs):
    run = desk_runs[SEEDS[0]]
    out = os.path.join(run["out"], "repeat")
    assert cli.main(["attack", "--out", out, "--seed", str(SEEDS[0]),
                     "--checkpoint", run["ckpt"]]) == 0
    first = Path(run["out"], "scores.csv").read_bytes()
    second = Path(out, "scores.csv").read_bytes()
    verdict("rerunning the attack reproduces scores.csv byte-for-byte",
            first == second,
            f"{len(first)} bytes compared")
