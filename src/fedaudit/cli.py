"""Experiment orchestration: train, attack, ablate, report.

Everything is driven by one JSON config file; command-line flags
override config values.  Every output file embeds the config hash and
the master seed, and a fixed config reproduces byte-identical outputs.

Exit codes: 0 success, 2 config error, 1 runtime error.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from . import attacks, data, fanout, federated, files, metrics, nn
from .tensors import ErosionConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

DATA_ROOT_ENV = "FEDAUDIT_DATA_ROOT"

DEFAULT_CONFIG = {
    "schema_version": 1,
    "seed": 0,
    "out_dir": "runs/default",
    "dataset": {
        "type": "synthetic",
        "classes": 10,
        "per_class": 20,
        "dims": [3, 32, 32],
        "noise_amp": 0.26,
        "template_strength": [0.0, 0.65],
        "test_per_class": 20,
    },
    "fed": {
        "num_clients": 5,
        "rounds": 34,
        "local_epochs": 4,
        "batch_size": 32,
        "lr": 0.08,
    },
    "arch": {
        "conv_channels": [8, 16],
        "dense_width": 64,
    },
    "erosion": {
        "steps": 3,
        "pool_factor": 2,
        "upsample_mode": "nearest",
    },
    "eval": {
        "members_per_client": 20,
        "total_nonmembers": 100,
    },
}


class ConfigError(ValueError):
    pass


def _merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path=None, overrides=None):
    """Defaults <- config file <- CLI overrides, then validate."""
    cfg = DEFAULT_CONFIG
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object, "
                              f"got {user!r}")
        cfg = _merge(cfg, user)
    cfg = _merge(cfg, overrides or {})
    validate_config(cfg)
    return cfg


# Every key a config may hold, with a value of the type it must have:
# DEFAULT_CONFIG plus the keys that have no default.
_SCHEMA = _merge(DEFAULT_CONFIG, {"dataset": {"path": "",
                                              "subset_per_class": 0}})
# scalar type in the schema -> (accepted types, name); bools never pass
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          str: ((str,), "a string")}


def _check_types(value, like, name):
    """Raise ConfigError unless value has the shape and types of like."""
    if isinstance(like, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        for key, item in value.items():
            full = f"{name}.{key}" if name else key
            if key not in like:
                raise ConfigError(f"unknown config key {full}")
            _check_types(item, like[key], full)
    elif isinstance(like, list):
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_types(item, like[0], f"{name}[{i}]")
    else:
        types, kind = _KINDS[type(like)]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        # json.load parses NaN and Infinity
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def validate_config(cfg):
    """Check cfg by building what the commands build from it, so each
    rule lives once, in the code that consumes the value."""
    _check_types(cfg, _SCHEMA, "")
    want = DEFAULT_CONFIG["schema_version"]
    if cfg["schema_version"] != want:
        raise ConfigError(f"schema_version must be {want}, "
                          f"got {cfg['schema_version']}")
    # every numpy generator here is seeded from it, and none takes < 0
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    if not cfg["out_dir"]:
        raise ConfigError("out_dir must not be empty")
    ds = cfg["dataset"]
    builds = {}
    if ds["type"] == "synthetic":
        dims, classes = ds["dims"], ds["classes"]
        builds["dataset"] = lambda: data.check_synthetic(
            classes, dims, ds["template_strength"])
    elif ds["type"] == "cifar10":
        path = resolve_dataset_path(ds)
        if not os.path.isdir(path):
            raise ConfigError(f"CIFAR-10 directory not found: {path}")
        # CIFAR-10's geometry, whatever the config says
        dims, classes = data.CIFAR_SHAPE, data.CIFAR_CLASSES
    else:
        raise ConfigError(f"unknown dataset type {ds['type']!r}")
    try:
        train_size, test_size = data.split_sizes(ds)
    except ValueError as exc:
        raise ConfigError(f"dataset.{exc}") from exc
    clients = cfg["fed"]["num_clients"]
    builds.update({
        "fed": lambda: federated.check_partition(
            train_size, fed_config(cfg).num_clients),
        # np.array_split's smallest shard; "fed" has checked clients >= 1
        "eval": lambda: data.check_eval_counts(
            clients, **cfg["eval"], smallest_shard=train_size // clients,
            test_size=test_size),
        "erosion": lambda: erosion_config(cfg).check_image(*dims[1:]),
        "arch": lambda: nn.default_architecture(dims, classes,
                                                **cfg["arch"])})
    for section, build in builds.items():
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from exc


def resolve_dataset_path(ds):
    path = ds.get("path", "cifar-10-batches-bin")
    root = os.environ.get(DATA_ROOT_ENV)
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    return path


def config_hash(cfg) -> str:
    # out_dir is where results land, not part of the experiment identity
    blob = json.dumps({k: v for k, v in cfg.items() if k != "out_dir"},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def training_record(cfg):
    """What a checkpoint was trained on: the sections that fix its data,
    shards and model.  dataset.path, like out_dir, is a location only."""
    dataset = {k: v for k, v in cfg["dataset"].items() if k != "path"}
    return {"arch": cfg["arch"], "dataset": dataset, "fed": cfg["fed"],
            "seed": cfg["seed"]}


def output_metadata(cfg):
    return {"config_hash": config_hash(cfg), "seed": cfg["seed"]}


def build_datasets(cfg):
    """Returns (train pool used for federated training, held-out pool)."""
    ds = cfg["dataset"]
    seed = cfg["seed"]
    if ds["type"] == "synthetic":
        strength = tuple(ds["template_strength"])
        train = data.generate_synthetic(
            ds["classes"], ds["per_class"], tuple(ds["dims"]), seed,
            noise_amp=ds["noise_amp"], template_strength=strength,
            stream=0)
        test = data.generate_synthetic(
            ds["classes"], ds["test_per_class"], tuple(ds["dims"]), seed,
            noise_amp=ds["noise_amp"], template_strength=strength,
            stream=1, id_base=1_000_000)
        return train, test
    train, test = data.load_cifar10(resolve_dataset_path(ds))
    if "subset_per_class" in ds:
        train = data.subset_per_class(train, ds["subset_per_class"], seed)
    return train, test


def erosion_config(cfg):
    return ErosionConfig(**cfg["erosion"])


def fed_config(cfg):
    return federated.FedConfig(seed=cfg["seed"], **cfg["fed"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(cfg, workers):
    train, test = build_datasets(cfg)
    arch = nn.default_architecture(train.images.shape[1:], train.num_classes,
                                   **cfg["arch"])
    # only now, so a data error leaves no output directory behind
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    params, log = federated.run_federated_training(
        train, arch, fed_config(cfg), test_set=test, workers=workers)
    model = nn.Model(arch=arch, params=params,
                     trained_on=training_record(cfg))
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    nn.save_checkpoint(ckpt_path, model)

    log_path = os.path.join(out_dir, "training_log.csv")
    columns = ["round", "train_acc", "test_acc", "mean_client_loss"]
    metrics.write_csv(log_path, columns,
                      ([row[k] for k in columns] for row in log),
                      output_metadata(cfg))
    if log:
        final = log[-1]
        print(f"trained {cfg['fed']['rounds']} rounds: "
              f"train_acc={final['train_acc']:.3f} "
              f"test_acc={final['test_acc']:.3f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"training log: {log_path}")


def _open_audit(cfg, checkpoint):
    """The prologue of attack and ablate: load the checkpoint, refuse
    it unless it was trained on cfg's record, build the eval samples and
    only then make the output directory.  Returns (model, samples)."""
    model = nn.load_checkpoint(checkpoint)
    # the record fixes the shards, so any other one mislabels membership
    want = training_record(cfg)
    for key in sorted(want.keys() | model.trained_on.keys()):
        got, need = model.trained_on.get(key), want.get(key)
        if got != need:
            got, need = (json.dumps(v, sort_keys=True) for v in (got, need))
            raise ValueError(f"checkpoint was trained with {key} {got}, "
                             f"config {key} is {need}")
    train, test = build_datasets(cfg)
    shards = federated.partition(train, cfg["fed"]["num_clients"],
                                 cfg["seed"])
    eval_set = data.build_eval_set(shards, test, seed=cfg["seed"],
                                   **cfg["eval"])
    samples = attacks.gather_eval_samples(eval_set, train, test)
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return model, samples


def measure_overhead(model, samples, ero_cfg, n_samples=100, warmup=10):
    """Median ms/sample for one forward pass vs the full erosion probe.

    Single-threaded and one query at a time on purpose, so the
    per-sample numbers mean something: the probe is the sequential
    K+1-query confidence_trace, not evaluate_attacks' query batches.
    """
    images = [samples[i % len(samples)].image
              for i in range(n_samples + warmup)]
    single, probe = [], []
    for i, img in enumerate(images):
        t0 = time.perf_counter()
        model.query(img)
        t1 = time.perf_counter()
        attacks.confidence_trace(model, img, ero_cfg)
        t2 = time.perf_counter()
        if i >= warmup:
            single.append((t1 - t0) * 1e3)
            probe.append((t2 - t1) * 1e3)
    single, probe = statistics.median(single), statistics.median(probe)
    return dict(zip(metrics.TIMING_KEYS, (single, probe, probe / single)))


def cmd_attack(cfg, checkpoint):
    out_dir = cfg["out_dir"]
    model, samples = _open_audit(cfg, checkpoint)
    ero_cfg = erosion_config(cfg)
    records = attacks.evaluate_attacks(model, samples, ero_cfg)
    meta = output_metadata(cfg)
    scores_path = os.path.join(out_dir, "scores.csv")
    attacks.write_scores_csv(scores_path, records, metadata=meta)

    timing = measure_overhead(model, samples, ero_cfg)
    report = metrics.build_report(
        records, ero_cfg.steps, timing=timing,
        metadata={**meta,
                  "erosion_steps": ero_cfg.steps,
                  "pool_factor": ero_cfg.pool_factor,
                  "upsample_mode": ero_cfg.upsample_mode,
                  "bilinear_alignment": "half-pixel-center"})
    report_path = os.path.join(out_dir, "report.json")
    text = report.to_json() + "\n"
    with files.replacing(report_path) as fh:
        fh.write(text)
    for name, row in report.attacks.items():
        print(f"{name}: auc={row['auc']:.3f} acc={row['accuracy']:.3f} "
              f"fpr@tpr80={row['fpr_at_tpr80']:.3f}")
    print(f"scores: {scores_path}")
    print(f"report: {report_path}")


def cmd_ablate(cfg, checkpoint):
    out_dir = cfg["out_dir"]
    model, samples = _open_audit(cfg, checkpoint)
    rows = []
    for mode in ("nearest", "bilinear"):
        ero_cfg = dataclasses.replace(erosion_config(cfg), upsample_mode=mode)
        records = attacks.evaluate_attacks(model, samples, ero_cfg)
        scores = [(r.scores["resmia"], r.is_member) for r in records]
        rows.append((mode, metrics.auc(metrics.roc_curve(scores))))
    path = os.path.join(out_dir, "ablation.csv")
    metrics.write_csv(path, ["upsample_mode", "auc_resmia"], rows,
                      output_metadata(cfg))
    for mode, value in rows:
        print(f"{mode}: auc={value:.3f}")
    print(f"ablation: {path}")


def cmd_report(out_dir):
    scores_path = os.path.join(out_dir, "scores.csv")
    report_path = os.path.join(out_dir, "report.json")
    for path in (scores_path, report_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing attack output: {path}")
    records, meta = attacks.read_scores_csv(scores_path)
    try:
        with open(report_path) as fh:
            report = metrics.MetricsReport.from_json(fh.read())
    except ValueError as exc:
        raise ValueError(f"{report_path} {exc}") from exc
    ablation_path = os.path.join(out_dir, "ablation.csv")
    inputs, ablation = {report_path: report.metadata}, None
    if os.path.exists(ablation_path):
        rows = metrics.read_csv(ablation_path,
                                ["upsample_mode", "auc_resmia"])
        try:
            inputs[ablation_path] = next(rows)
            ablation = [(mode, float(value)) for mode, value in rows]
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{ablation_path} does not parse: "
                             f"{exc!r}") from exc
        finally:
            rows.close()
    # every input must come from the run that wrote scores.csv
    for path, other in inputs.items():
        for key in ("seed", "config_hash"):
            got, want = str(other.get(key)), meta.get(key)
            if got != want:
                raise ValueError(f"{path} has {key} {got}, "
                                 f"{scores_path} has {key} {want}")

    queries = {r.queries_resmia for r in records}
    if len(queries) != 1:  # none in a scores.csv without data rows
        raise ValueError(f"{scores_path} has queries_resmia values "
                         f"{sorted(queries)}, not one value")
    try:
        rebuilt, curves = metrics.report_and_curves(
            records, queries.pop() - 1, report.timing, report.metadata)
    except metrics.DegenerateScoresError as exc:
        raise ValueError(f"{scores_path}: {exc}") from exc
    # the summary shows the rebuilt values, so the file must hold them
    got, want = report.derived(), rebuilt.derived()
    for key in want:
        if got[key] != want[key]:
            raise ValueError(f"{report_path} has {key} {got[key]!r}, "
                             f"{scores_path} gives {want[key]!r}")
    text = _summary_text(rebuilt, ablation)
    roc_path = os.path.join(out_dir, "roc.csv")
    metrics.write_roc_csv(roc_path, curves, metadata=meta)
    summary_path = os.path.join(out_dir, "summary.txt")
    summary = metrics.preamble(meta) + text
    with files.replacing(summary_path) as fh:
        fh.write(summary)
    print(text, end="")
    print(f"summary: {summary_path}")
    print(f"roc polylines: {roc_path}")


def _summary_text(report, ablation):
    """summary.txt's body: the report's tables and the ablation rows."""
    lines = []
    lines.append("attack performance")
    lines.append(f"{'attack':<10}{'auc':>8}{'accuracy':>10}"
                 f"{'fpr@tpr80':>11}")
    for name in attacks.ATTACK_NAMES:
        row = report.attacks[name]
        lines.append(f"{name:<10}{row['auc']:>8.3f}{row['accuracy']:>10.3f}"
                     f"{row['fpr_at_tpr80']:>11.3f}")
    lines.append("")
    lines.append("per-client resmia auc")
    for cid, value in sorted(report.per_client.items()):
        lines.append(f"client {cid}: {value:.3f}")
    lines.append(f"std: {report.client_auc_std:.4f}")
    lines.append("")
    lines.append("query budget per sample")
    for name in attacks.ATTACK_NAMES:
        lines.append(f"{name}: {report.query_counts[name]}")
    if report.timing:
        lines.append("")
        lines.append("overhead (median ms/sample)")
        lines.append(f"single forward pass: "
                     f"{report.timing['single_forward_ms']:.3f}")
        lines.append(f"full erosion probe:  "
                     f"{report.timing['resmia_probe_ms']:.3f}")
        lines.append(f"ratio: {report.timing['ratio']:.2f}x")
    if ablation is not None:
        lines.append("")
        lines.append("upsampling ablation (resmia auc)")
        for mode, value in ablation:
            lines.append(f"{mode}: {value:.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fedaudit",
        description="Train a small federated image classifier and audit "
                    "it with resolution-erosion membership inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="master seed override")
        if checkpoint:
            p.add_argument("--checkpoint", required=True,
                           help="model checkpoint from the train command")
            p.add_argument("--erosion-steps", type=int,
                           help="erosion step count override")
            p.add_argument("--upsample", choices=["nearest", "bilinear"],
                           help="upsampling mode override")
        return p

    train = common(sub.add_parser(
        "train", help="run federated training, write checkpoint and log"))
    train.add_argument("--workers", type=int, default=fanout.fan_out_width(),
                       help="client training workers: this process and "
                            "N-1 forked ones (numerics are identical for "
                            "any value; default: the usable cores, 1 "
                            "without numpy's scipy-openblas)")
    common(sub.add_parser(
        "attack", help="score the eval set with all attacks"),
        checkpoint=True)
    common(sub.add_parser(
        "ablate", help="compare nearest vs bilinear upsampling"),
        checkpoint=True)
    rep = sub.add_parser(
        "report", help="render tables and ROC polylines from attack "
                       "outputs")
    rep.add_argument("--out", required=True,
                     help="directory holding scores.csv and report.json")
    return parser


def _overrides(args):
    over = {}
    if getattr(args, "out", None) == "":
        raise ConfigError("--out must not be empty")
    if getattr(args, "out", None) is not None:
        over["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    ero = {}
    if getattr(args, "erosion_steps", None) is not None:
        ero["steps"] = args.erosion_steps
    if getattr(args, "upsample", None):
        ero["upsample_mode"] = args.upsample
    if ero:
        over["erosion"] = ero
    return over


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cmd_report(_overrides(args)["out_dir"])
            return EXIT_OK
        if args.command == "train" and args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = load_config(args.config, _overrides(args))
        if args.command == "train":
            cmd_train(cfg, workers=args.workers)
        elif args.command == "attack":
            cmd_attack(cfg, args.checkpoint)
        elif args.command == "ablate":
            cmd_ablate(cfg, args.checkpoint)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures get a distinct exit code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
