import argparse
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from fedaudit import cli, data, fanout, federated, metrics, nn

from test_data import write_cifar_batch


SMALL_CONFIG = {
    "dataset": {
        "classes": 4,
        "per_class": 8,
        "dims": [3, 16, 16],
        "test_per_class": 4,
    },
    "fed": {
        "num_clients": 2,
        "rounds": 2,
        "local_epochs": 1,
        "batch_size": 8,
    },
    "arch": {
        "conv_channels": [4],
        "dense_width": 16,
    },
    "erosion": {
        "steps": 2,
    },
    "eval": {
        "members_per_client": 4,
        "total_nonmembers": 8,
    },
}


def write_config(tmp_path, extra=None):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in (extra or {}).items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_pipeline(tmp_path, out_name="run", config_extra=None,
                 attack_flags=()):
    cfg = write_config(tmp_path, config_extra)
    out = str(tmp_path / out_name)
    assert cli.main(["train", "--config", cfg, "--out", out]) == 0
    ckpt = os.path.join(out, "model.ckpt")
    rc = cli.main(["attack", "--config", cfg, "--out", out,
                   "--checkpoint", ckpt, *attack_flags])
    assert rc == 0
    return cfg, out, ckpt


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A checkpoint trained on SMALL_CONFIG, shared by the tests that only
    read it."""
    tmp_path = tmp_path_factory.mktemp("small")
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", write_config(tmp_path),
                     "--out", out]) == 0
    return os.path.join(out, "model.ckpt")


@pytest.fixture(scope="module")
def audited_run(tmp_path_factory, small_checkpoint):
    """attack and ablate outputs of small_checkpoint under SMALL_CONFIG,
    copied by the tests that damage one of them."""
    tmp_path = tmp_path_factory.mktemp("audited")
    audit = ["--config", write_config(tmp_path), "--out",
             str(tmp_path / "run"), "--checkpoint", small_checkpoint]
    assert cli.main(["attack", *audit]) == 0
    assert cli.main(["ablate", *audit]) == 0
    return tmp_path / "run"


def json_edit(change):
    """An edit of a JSON file's text: change(payload) in place."""
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


def without_key(key):
    return json_edit(lambda payload: payload.pop(key))


def scores_cell(row, column, value):
    """An edit of scores.csv's lines: value into data row `row` (from 1)
    under the header's `column`."""
    def edit(lines):
        i = row + 2  # after the two metadata lines and the header
        cells = lines[i].rstrip("\r\n").split(",")
        cells[lines[2].rstrip("\r\n").split(",").index(column)] = value
        return lines[:i] + [",".join(cells) + "\r\n"] + lines[i + 1:]
    return edit


class TestPipeline:
    def test_train_writes_checkpoint_and_log(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "model.ckpt"))
        log = Path(out, "training_log.csv").read_text()
        assert "# seed=0" in log
        assert "# config_hash=" in log
        # header plus one row per round plus metadata lines
        assert log.count("\n") == 2 + 1 + SMALL_CONFIG["fed"]["rounds"]
        assert "train_acc" in capsys.readouterr().out

    def test_attack_writes_scores_and_report(self, tmp_path):
        _, out, _ = run_pipeline(tmp_path)
        scores = Path(out, "scores.csv").read_text()
        # 8 members + 8 non-members, one row each, plus header and metadata
        assert scores.count("\n") == 2 + 1 + 16
        report = json.loads(Path(out, "report.json").read_text())
        assert set(report["attacks"]) == {"resmia", "loss", "entropy"}
        assert report["query_counts"] == {
            "resmia": 3, "loss": 1, "entropy": 1}
        assert len(report["per_client_auc"]) == 2
        assert report["timing"]["ratio"] > 1.0

    def test_report_renders_summary_and_roc(self, tmp_path, capsys):
        _, out, _ = run_pipeline(tmp_path)
        assert cli.main(["report", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "attack performance" in text
        assert "query budget" in text
        assert os.path.exists(os.path.join(out, "summary.txt"))
        roc = Path(out, "roc.csv").read_text()
        assert "fpr" in roc and "resmia" in roc

    def test_ablate_writes_both_modes(self, tmp_path):
        cfg, out, ckpt = run_pipeline(tmp_path)
        assert cli.main(["ablate", "--config", cfg, "--out", out,
                        "--checkpoint", ckpt]) == 0
        rows = [line for line in
                Path(out, "ablation.csv").read_text().splitlines()
                if not line.startswith("# ")]
        assert rows[0].strip() == "upsample_mode,auc_resmia"
        modes = [row.split(",")[0] for row in rows[1:]]
        assert modes == ["nearest", "bilinear"]

    def test_rounds_zero_still_produces_model(self, tmp_path):
        _, out, _ = run_pipeline(tmp_path,
                                 config_extra={"fed": {"rounds": 0}})
        assert os.path.exists(os.path.join(out, "scores.csv"))


class TestOutputsReplacedWhole:
    """An error while attack or report writes an output leaves the
    earlier file byte for byte, and no temporary file."""

    @pytest.mark.parametrize("failure", ["to_json", "full_disk"])
    def test_attack_keeps_an_earlier_report_json(
            self, tmp_path, monkeypatch, full_disk, small_checkpoint,
            audited_run, failure):
        out = tmp_path / "run"
        shutil.copytree(audited_run, out)
        before = (out / "report.json").read_bytes()
        if failure == "to_json":
            def refuse(report):
                raise ValueError("refused")
            monkeypatch.setattr(metrics.MetricsReport, "to_json", refuse)
        else:
            full_disk("report.json")
        assert cli.main(["attack", "--config", write_config(tmp_path),
                         "--out", str(out), "--checkpoint",
                         small_checkpoint]) == 1
        assert (out / "report.json").read_bytes() == before
        assert not (out / "report.json.tmp").exists()

    def test_report_keeps_an_earlier_summary(self, tmp_path, full_disk,
                                             audited_run):
        out = tmp_path / "run"
        shutil.copytree(audited_run, out)
        assert cli.main(["report", "--out", str(out)]) == 0
        before = (out / "summary.txt").read_bytes()
        full_disk("summary.txt")
        assert cli.main(["report", "--out", str(out)]) == 1
        assert (out / "summary.txt").read_bytes() == before
        assert not (out / "summary.txt.tmp").exists()


class TestDeterminism:
    def test_rerun_scores_byte_identical(self, tmp_path):
        cfg, out_a, ckpt = run_pipeline(tmp_path, out_name="a")
        out_b = str(tmp_path / "b")
        assert cli.main(["attack", "--config", cfg, "--out", out_b,
                        "--checkpoint", ckpt]) == 0
        a = Path(out_a, "scores.csv").read_bytes()
        b = Path(out_b, "scores.csv").read_bytes()
        assert a == b

    def test_retrained_checkpoint_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert cli.main(["train", "--config", cfg, "--out", out]) == 0
            outs.append(Path(out, "model.ckpt").read_bytes())
        assert outs[0] == outs[1]

    def test_default_workers_write_the_one_worker_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = {}
        for name, flags in (("default", []), ("one", ["--workers", "1"])):
            out = tmp_path / name
            assert cli.main(["train", "--config", cfg, "--out", str(out),
                             *flags]) == 0
            outs[name] = [(out / f).read_bytes()
                          for f in ("model.ckpt", "training_log.csv")]
        assert outs["default"] == outs["one"]

    def test_train_workers_default_to_fan_out_width(self, monkeypatch):
        monkeypatch.setattr(fanout, "fan_out_width", lambda: 3)
        assert cli.build_parser().parse_args(["train"]).workers == 3

    def test_seed_override_changes_scores(self, tmp_path):
        cfg, out_a, _ = run_pipeline(tmp_path, out_name="a")
        out_b = str(tmp_path / "b")
        assert cli.main(["train", "--config", cfg, "--out", out_b,
                        "--seed", "5"]) == 0
        ckpt_b = os.path.join(out_b, "model.ckpt")
        assert cli.main(["attack", "--config", cfg, "--out", out_b,
                        "--seed", "5", "--checkpoint", ckpt_b]) == 0
        a = Path(out_a, "scores.csv").read_text()
        b = Path(out_b, "scores.csv").read_text()
        assert a != b


class TestOverridesAndErrors:
    def test_erosion_flags_reach_report(self, tmp_path):
        _, out, _ = run_pipeline(
            tmp_path, attack_flags=("--erosion-steps", "4",
                                    "--upsample", "bilinear"))
        report = json.loads(Path(out, "report.json").read_text())
        assert report["metadata"]["erosion_steps"] == 4
        assert report["metadata"]["upsample_mode"] == "bilinear"
        assert report["query_counts"]["resmia"] == 5

    def test_flag_only_bilinear_ablate_renders_in_report(self, tmp_path,
                                                         capsys):
        cfg, out, ckpt = run_pipeline(
            tmp_path, attack_flags=("--upsample", "bilinear"))
        assert cli.main(["ablate", "--config", cfg, "--out", out,
                         "--checkpoint", ckpt, "--upsample", "bilinear"]) == 0
        assert cli.main(["report", "--out", out]) == 0
        assert "upsampling ablation" in capsys.readouterr().out

    def test_ablate_upsample_flag_changes_only_the_config_hash(
            self, tmp_path, small_checkpoint):
        cfg = write_config(tmp_path)

        def ablation(*flags):
            out = tmp_path / "-".join(flags or ["none"])
            assert cli.main(["ablate", "--config", cfg, "--out", str(out),
                             "--checkpoint", small_checkpoint, *flags]) == 0
            return (out / "ablation.csv").read_text().splitlines()

        default = ablation()
        assert ablation("--upsample", "nearest") == default  # the default
        # ablate runs both modes anyway: only the recorded config differs
        bilinear = ablation("--upsample", "bilinear")
        assert len(bilinear) == len(default)
        changed = [a for a, b in zip(bilinear, default) if a != b]
        assert [line.partition("=")[0] for line in changed] == [
            "# config_hash"]

    @pytest.mark.parametrize("content, fragment", [
        (b"{not json", "is not valid JSON"),
        (b"[1]", "must hold a JSON object, got [1]"),
        (b'"x"', "must hold a JSON object, got 'x'"),
        (b"null", "must hold a JSON object, got None"),
        (b"\xff\xfe{}", "cannot be read"),
        (None, "cannot be read"),
    ], ids=["broken", "list", "string", "null", "not_utf8", "directory"])
    def test_invalid_json_config_exits_2(self, tmp_path, capsys,
                                         monkeypatch, content, fragment):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert cli.main(["train", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: config file {path} ")
        assert fragment in captured.err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("extra, fragment", [
        ({"fed": {"rounds": -1}}, "fed.rounds"),
        ({"fed": {"lr": -1}}, "lr must be >= 0"),
        ({"erosion": {"pool_factor": 1}}, "pool_factor must be >= 2"),
        ({"erosion": {"steps": 0}}, "erosion.steps must be >= 1"),
        # 2**5 = 32 does not divide the 16x16 images
        ({"erosion": {"steps": 5}}, "pool_factor**steps = 2**5 does not"),
        ({"erosion": {"steps": 10**9}}, "2**1000000000 does not divide"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": -1}, "config error: seed must be >= 0, got -1"),
        ({"schema_version": 7}, "config error: schema_version must be 1, "
                                "got 7"),
        ({"fed": {"batch_size": False}}, "fed.batch_size must be an integer"),
        ({"fed": {"lr": True}}, "fed.lr must be a number"),
        ({"fed": {"lr": float("nan")}}, "fed.lr must be finite, got nan"),
        ({"fed": {"lr": float("inf")}}, "fed.lr must be finite, got inf"),
        ({"dataset": {"noise_amp": float("nan")}},
         "dataset.noise_amp must be finite, got nan"),
        ({"erosion": {"step": 5}}, "unknown config key erosion.step"),
        ({"evaluation": {}}, "unknown config key evaluation"),
        ({"dataset": {"dims": [3, 16]}}, "dataset.dims must be"),
        ({"arch": {"conv_channels": [4, "8"]}},
         "arch.conv_channels[1] must be an integer"),
        # 2 clients x 3 members != 8 non-members
        ({"eval": {"members_per_client": 3}},
         "eval.total_nonmembers must be 2 clients x 3 members, got 8"),
        ({"eval": {"members_per_client": 0, "total_nonmembers": 0}},
         "eval.members_per_client must be >= 1, got 0"),
        ({"arch": {"conv_channels": [0, 16]}},
         "arch.conv width must be >= 1, got 0"),
        ({"arch": {"dense_width": -3}},
         "arch.dense_relu width must be >= 1, got -3"),
        # erosion fits 20x20, but the third maxpool meets 5x5
        ({"dataset": {"dims": [3, 20, 20]},
          "arch": {"conv_channels": [8, 16, 32]}},
         "arch.maxpool2 on odd dims 5x5"),
        ({"dataset": {"template_strength": [0.1]}},
         "dataset.template_strength must be [low, high], got [0.1]"),
        ({"dataset": {"classes": 1}}, "dataset.classes must be >= 2, got 1"),
        ({"dataset": {"dims": [0, 32, 32]}},
         "dataset.dims need >= 1 channel and sides >= 2, got [0, 32, 32]"),
        ({"dataset": {"dims": [3, -16, -16]}},
         "dataset.dims need >= 1 channel and sides >= 2, got [3, -16, -16]"),
        # data sizes follow from the config: 4 classes x 0 samples
        ({"dataset": {"per_class": 0}},
         "fed.num_clients must be <= 0, the training split size, got 2"),
        # 4 classes x 1 test sample < 8 non-members
        ({"dataset": {"test_per_class": 1}},
         "eval.total_nonmembers must be <= 4, the test split size, got 8"),
        # 32 training samples over 3 clients: shards of 11, 11 and 10
        ({"fed": {"num_clients": 3}, "dataset": {"test_per_class": 9},
          "eval": {"members_per_client": 11, "total_nonmembers": 33}},
         "eval.members_per_client must be <= 10, the smallest client "
         "shard, got 11"),
        ({"out_dir": ""}, "config error: out_dir must not be empty"),
    ], ids=["rounds", "lr", "pool_factor", "steps_zero", "steps_too_many",
            "huge_steps", "seed_bool", "seed_negative", "schema_version",
            "batch_size_bool",
            "lr_bool", "lr_nan", "lr_infinity", "noise_amp_nan",
            "unknown_key", "unknown_section", "dims_length",
            "channel_type", "eval_unbalanced", "eval_empty",
            "arch_zero_channels", "arch_negative_width",
            "arch_odd_maxpool", "template_strength_length", "one_class",
            "dims_zero_channels", "dims_negative_sides", "train_too_small",
            "test_too_small", "shard_too_small", "empty_out_dir"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, extra,
                                      fragment):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"out_dir": str(out), **extra})
        assert cli.main(["train", "--config", cfg]) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, fragment", [
        ("attack", ["--erosion-steps", "0"], "erosion.steps must be >= 1"),
        ("attack", ["--erosion-steps", "5"], "does not divide"),
        ("ablate", ["--erosion-steps", "-1"], "erosion.steps must be >= 1"),
        ("train", ["--workers", "0"], "--workers must be >= 1"),
        ("train", ["--seed", "-1"], "config error: seed must be >= 0"),
        ("train", ["--out", ""], "config error: --out must not be empty"),
        ("attack", ["--out", ""], "config error: --out must not be empty"),
        ("report", ["--out", ""], "config error: --out must not be empty"),
    ], ids=["steps_zero", "steps_too_many", "steps_negative", "workers_zero",
            "seed_negative", "train_out_empty", "attack_out_empty",
            "report_out_empty"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, monkeypatch, command,
                              flags, fragment):
        # an ignored --out "" would fall back to runs/default here
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "run"
        argv = [command, "--out", str(out), *flags]
        if command != "report":
            argv += ["--config", write_config(tmp_path)]
        if command in ("attack", "ablate"):
            argv += ["--checkpoint", str(tmp_path / "missing.ckpt")]
        assert cli.main(argv) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--erosion-steps"), ("train", "--upsample"),
        ("attack", "--workers"), ("ablate", "--workers")])
    def test_flag_not_read_by_command_rejected(self, tmp_path, capsys,
                                               command, flag):
        argv = [command, "--config", write_config(tmp_path), flag, "2"]
        if command != "train":
            argv += ["--checkpoint", str(tmp_path / "missing.ckpt")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_dataset_path_key_accepted(self, tmp_path):
        cfg = cli.load_config(write_config(
            tmp_path, {"dataset": {"path": "elsewhere"}}))
        assert cfg["dataset"]["path"] == "elsewhere"

    def test_truncated_checkpoint_exits_1(self, tmp_path, capsys):
        cfg, out, ckpt = run_pipeline(tmp_path)
        with open(ckpt, "r+b") as fh:
            fh.truncate(os.path.getsize(ckpt) - 1)
        capsys.readouterr()
        assert cli.main(["attack", "--config", cfg, "--out", out,
                         "--checkpoint", ckpt]) == 1
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["attack", "ablate"])
    def test_non_finite_checkpoint_exits_1_before_output(
            self, tmp_path, capsys, small_checkpoint, command):
        model = nn.load_checkpoint(small_checkpoint)
        model.params[0]["W"][0, 0, 1, 1] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        nn.save_checkpoint(ckpt, model)
        out = tmp_path / "refused"
        capsys.readouterr()
        assert cli.main([command, "--config", write_config(tmp_path),
                         "--out", str(out), "--checkpoint", str(ckpt)]) == 1
        assert (f"error: {ckpt}: layer 0 W holds 1 non-finite values"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_diverged_training_exits_1_without_checkpoint(
            self, tmp_path, capsys, workers):
        out = tmp_path / "run"
        capsys.readouterr()
        with np.errstate(all="ignore"):
            rc = cli.main(["train", "--config",
                           write_config(tmp_path, {"fed": {"lr": 1e30}}),
                           "--out", str(out), "--workers", workers])
        assert rc == 1
        assert "error: round 1 diverged: mean client loss nan" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("module, name", [
        (cli, "cmd_train"), (federated, "run_federated_training")])
    def test_interrupted_training_exits_130_without_out_dir(
            self, tmp_path, capsys, monkeypatch, module, name):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(module, name, interrupt)
        out = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(["train", "--config", write_config(tmp_path),
                         "--out", str(out)]) == 130
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not out.exists()

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = cli.main(["attack", "--config", cfg,
                       "--out", str(tmp_path / "run"),
                       "--checkpoint", str(tmp_path / "missing.ckpt")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_report_without_outputs_exits_1(self, tmp_path):
        assert cli.main(["report", "--out", str(tmp_path / "empty")]) == 1

    def test_damaged_scores_csv_exits_1_naming_file_and_row(self, tmp_path,
                                                          capsys):
        _, out, _ = run_pipeline(tmp_path)
        scores = os.path.join(out, "scores.csv")
        with open(scores, "rb") as fh:
            raw = fh.read()
        # cut the last of the 16 rows short after its client_id
        last = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        with open(scores, "wb") as fh:
            fh.write(raw[:raw.index(b",", raw.index(b",", last) + 1)])
        capsys.readouterr()
        assert cli.main(["report", "--out", out]) == 1
        assert f"error: {scores}: data row 16 " in capsys.readouterr().err

    def test_report_refuses_scores_cut_at_a_row(self, tmp_path, capsys):
        _, out, _ = run_pipeline(tmp_path)
        scores = os.path.join(out, "scores.csv")
        with open(scores, "rb") as fh:
            lines = fh.readlines()
        with open(scores, "wb") as fh:
            fh.writelines(lines[:-3])
        capsys.readouterr()
        assert cli.main(["report", "--out", out]) == 1
        err = capsys.readouterr().err
        assert scores in err
        assert os.path.join(out, "report.json") in err
        assert not os.path.exists(os.path.join(out, "roc.csv"))
        assert not os.path.exists(os.path.join(out, "summary.txt"))

    def test_report_refuses_ablation_from_another_config(
            self, tmp_path, capsys, small_checkpoint):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        audit = ["--config", cfg, "--out", out,
                 "--checkpoint", small_checkpoint]
        # ablate at the config's 2 erosion steps, then attack at 3
        assert cli.main(["ablate", *audit]) == 0
        assert cli.main(["attack", *audit, "--erosion-steps", "3"]) == 0
        hashes = {}
        for name in ("ablation.csv", "scores.csv"):
            with open(os.path.join(out, name)) as fh:
                hashes[name] = next(line.strip().partition("=")[2]
                                    for line in fh
                                    if line.startswith("# config_hash="))
        assert hashes["ablation.csv"] != hashes["scores.csv"]
        capsys.readouterr()
        assert cli.main(["report", "--out", out]) == 1
        err = capsys.readouterr().err
        for name, value in hashes.items():
            assert os.path.join(out, name) in err
            assert value in err
        assert not os.path.exists(os.path.join(out, "roc.csv"))
        assert not os.path.exists(os.path.join(out, "summary.txt"))
        # an ablation under the attack's config is accepted
        assert cli.main(["ablate", *audit, "--erosion-steps", "3"]) == 0
        assert cli.main(["report", "--out", out]) == 0
        assert "upsampling ablation" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("seed", 1),
                                            ("config_hash", "0" * 16)])
    def test_report_refuses_report_json_from_another_run(
            self, tmp_path, capsys, small_checkpoint, key, value):
        out = tmp_path / "run"
        assert cli.main(["attack", "--config", write_config(tmp_path),
                         "--out", str(out),
                         "--checkpoint", small_checkpoint]) == 0
        report = json.loads((out / "report.json").read_text())
        want = report["metadata"][key]
        report["metadata"][key] = value
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == 1
        assert (f"{out / 'report.json'} has {key} {value}, "
                f"{out / 'scores.csv'} has {key} {want}"
                in capsys.readouterr().err)
        assert not (out / "roc.csv").exists()

    def test_report_refuses_another_report_schema_version(
            self, tmp_path, capsys, small_checkpoint):
        out = tmp_path / "run"
        assert cli.main(["attack", "--config", write_config(tmp_path),
                         "--out", str(out),
                         "--checkpoint", small_checkpoint]) == 0
        report = json.loads((out / "report.json").read_text())
        report["schema_version"] = 99
        (out / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == 1
        assert (f"{out / 'report.json'} has schema_version 99"
                in capsys.readouterr().err)
        assert not (out / "roc.csv").exists()
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("report.json", without_key("schema_version"),
         "has no key 'schema_version'"),
        ("report.json", without_key("attacks"), "has no key 'attacks'"),
        ("report.json", lambda text: text + "x\n",
         "Extra data: line "),
        ("report.json", lambda text: f"[{text}]", "is not a JSON object"),
        ("report.json", json_edit(lambda r: r["attacks"].pop("resmia")),
         "has attacks {'entropy': {'accuracy': "),
        ("report.json",
         json_edit(lambda r: r.update(
             per_client_auc=list(r["per_client_auc"].values()))),
         "has per_client_auc of type list, not a JSON object"),
        ("report.json", json_edit(lambda r: r["timing"].pop("ratio")),
         "has timing {'resmia_probe_ms': "),
        ("report.json",
         json_edit(lambda r: r["attacks"]["loss"].pop("accuracy")),
         "has attacks {'entropy': {'accuracy': "),
        ("report.json",
         json_edit(lambda r: r["attacks"]["loss"].update(accuracy=0.125)),
         "has attacks {'entropy': {'accuracy': "),
        ("report.json",
         json_edit(lambda r: r["per_client_auc"].update({"0": 0.125})),
         "has per_client_auc {'0': 0.125, '1': "),
        ("report.json",
         json_edit(lambda r: r["query_counts"].update(resmia=7)),
         "has query_counts {'entropy': 1, 'loss': 1, 'resmia': 7}, "),
        ("ablation.csv",
         lambda text: text.replace("upsample_mode,auc_resmia",
                                   "upsample_mode,auc"),
         "does not parse: ValueError(\"header ['upsample_mode', 'auc'] is "
         "not upsample_mode,auc_resmia\")"),
        ("ablation.csv",
         lambda text: re.sub(r"^bilinear,.*$", "bilinear,high", text,
                             flags=re.M),
         "does not parse: ValueError(\"could not convert string to float: "
         "'high'\")"),
        ("ablation.csv",
         lambda text: re.sub(r"^(bilinear,.*)$", r"\1,999", text,
                             flags=re.M),
         "does not parse: ValueError('too many values to unpack "
         "(expected 2"),
        ("ablation.csv",
         lambda text: re.sub(r"^bilinear,.*$", "bilinear", text,
                             flags=re.M),
         "does not parse: ValueError('not enough values to unpack "
         "(expected 2, got 1)')"),
        ("ablation.csv",
         lambda text: re.sub(r"^bilinear,.*$", "", text, flags=re.M),
         "does not parse: ValueError('not enough values to unpack "
         "(expected 2, got 0)')"),
    ], ids=["report_without_schema_version", "report_without_attacks",
            "report_with_text_appended", "report_as_json_list",
            "report_without_resmia", "per_client_auc_as_list",
            "timing_without_ratio", "attack_without_accuracy",
            "loss_accuracy_edited", "per_client_auc_edited",
            "resmia_query_count_edited",
            "ablation_column_renamed", "ablation_auc_not_a_number",
            "ablation_extra_field", "ablation_missing_field",
            "ablation_blank_row"])
    def test_report_refuses_a_damaged_input_before_writing(
            self, tmp_path, capsys, audited_run, name, edit, message):
        out = tmp_path / "run"
        shutil.copytree(audited_run, out)
        damaged = out / name
        text = damaged.read_text()
        damaged.write_text(edit(text))
        assert damaged.read_text() != text
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == 1
        assert f"error: {damaged} {message}" in capsys.readouterr().err
        assert not (out / "roc.csv").exists()
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:3], " has queries_resmia values [], not one "
                                  "value"),
        (scores_cell(16, "queries_resmia", "9"),
         " has queries_resmia values [3, 9], not one value"),
        (scores_cell(2, "score_resmia", "nan"),
         ": resmia scores hold 1 non-finite values"),
    ], ids=["header_only", "two_query_counts", "nan_score"])
    def test_report_refuses_scores_it_cannot_rebuild_from(
            self, tmp_path, capsys, audited_run, edit, message):
        out = tmp_path / "run"
        shutil.copytree(audited_run, out)
        scores = out / "scores.csv"
        lines = scores.read_bytes().decode().splitlines(keepends=True)
        scores.write_bytes("".join(edit(lines)).encode())
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {scores}{message}\n"
        assert not (out / "roc.csv").exists()
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("row, value, fault", [
        (2, "nonmember", "is a member with client_id 'nonmember'"),
        (16, "0", "is a non-member with client_id '0', not nonmember"),
    ], ids=["member_nonmember", "non_member_int"])
    def test_report_refuses_a_client_id_that_does_not_fit_is_member(
            self, tmp_path, capsys, audited_run, row, value, fault):
        out = tmp_path / "run"
        shutil.copytree(audited_run, out)
        scores = out / "scores.csv"
        lines = scores.read_bytes().decode().splitlines(keepends=True)
        scores.write_bytes("".join(
            scores_cell(row, "client_id", value)(lines)).encode())
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {scores}: data row "
                                           f"{row} {fault}\n")
        assert not (out / "roc.csv").exists()

    def test_report_reads_crlf_copies_to_the_same_bytes(self, tmp_path,
                                                        audited_run):
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        shutil.copytree(audited_run, lf)
        shutil.copytree(audited_run, crlf)
        for name in ("scores.csv", "report.json", "ablation.csv"):
            path = crlf / name
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n")
                             .replace(b"\n", b"\r\n"))
        assert cli.main(["report", "--out", str(lf)]) == 0
        assert cli.main(["report", "--out", str(crlf)]) == 0
        for name in ("roc.csv", "summary.txt"):
            assert (crlf / name).read_bytes() == (lf / name).read_bytes()

    def test_report_accepts_an_empty_timing(self, tmp_path, audited_run):
        out = tmp_path / "run"
        shutil.copytree(audited_run, out)
        path = out / "report.json"
        path.write_text(json_edit(lambda r: r.update(timing={}))(
            path.read_text()))
        assert cli.main(["report", "--out", str(out)]) == 0
        assert "overhead" not in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("other_config, fragments", [
        ({"dataset": {"dims": [3, 8, 8]}},
         ["trained with dataset", '"dims": [3, 16, 16]',
          "config dataset is", '"dims": [3, 8, 8]']),
        ({"seed": 1}, ["trained with seed 0, config seed is 1"]),
        ({"fed": {"num_clients": 4}, "eval": {"members_per_client": 2}},
         ["trained with fed", '"num_clients": 2', '"num_clients": 4']),
        ({"dataset": {"noise_amp": 0.3}},
         ["trained with dataset", '"noise_amp": 0.26',
          '"noise_amp": 0.3']),
    ], ids=["dims", "seed", "num_clients", "noise_amp"])
    @pytest.mark.parametrize("command", ["attack", "ablate"])
    def test_checkpoint_dataset_mismatch_exits_1(self, tmp_path, capsys,
                                                 small_checkpoint,
                                                 other_config, fragments,
                                                 command):
        other = write_config(tmp_path, other_config)
        out = tmp_path / "refused"
        capsys.readouterr()
        rc = cli.main([command, "--config", other, "--out", str(out),
                       "--checkpoint", small_checkpoint])
        assert rc == 1
        err = capsys.readouterr().err
        for fragment in fragments:
            assert fragment in err
        assert not out.exists()

    def test_checkpoint_accepted_from_another_dataset_path(
            self, tmp_path, small_checkpoint):
        other = write_config(tmp_path, {"dataset": {"path": "elsewhere"}})
        assert cli.main(["attack", "--config", other,
                         "--out", str(tmp_path / "run"),
                         "--checkpoint", small_checkpoint]) == 0


def write_fake_cifar(root):
    """5 training batches of 20 images and a test batch of 50, in the
    CIFAR-10 binary layout; labels cycle through the 10 classes."""
    rng = np.random.default_rng(0)
    root.mkdir()
    for name, n in [(f, 20) for f in data.CIFAR_TRAIN_FILES] + [
            (f, 50) for f in data.CIFAR_TEST_FILES]:
        images = rng.integers(0, 256, (n, *data.CIFAR_SHAPE), dtype=np.uint8)
        write_cifar_batch(root / name, images, np.arange(n) % 10)


class TestCifarRoute:
    CIFAR = {"dataset": {"type": "cifar10", "path": "cifar"},
             "fed": {"rounds": 1, "local_epochs": 1},
             "eval": {"members_per_client": 2, "total_nonmembers": 4}}

    @pytest.fixture
    def data_root(self, tmp_path, monkeypatch):
        write_fake_cifar(tmp_path / "cifar")
        monkeypatch.setenv(cli.DATA_ROOT_ENV, str(tmp_path))
        return tmp_path

    def test_train_and_attack_through_data_root(self, tmp_path, data_root):
        _, out, _ = run_pipeline(tmp_path, config_extra=self.CIFAR)
        report = json.loads(Path(out, "report.json").read_text())
        assert len(report["per_client_auc"]) == 2

    def test_subset_per_class_trains(self, tmp_path, data_root):
        extra = json.loads(json.dumps(self.CIFAR))
        extra["dataset"]["subset_per_class"] = 4
        out = tmp_path / "run"
        assert cli.main(["train", "--config", write_config(tmp_path, extra),
                         "--out", str(out)]) == 0
        ckpt = nn.load_checkpoint(out / "model.ckpt")
        assert ckpt.trained_on["dataset"]["subset_per_class"] == 4

    def test_relative_path_without_data_root_exits_2(
            self, tmp_path, monkeypatch, capsys):
        write_fake_cifar(tmp_path / "cifar")
        monkeypatch.delenv(cli.DATA_ROOT_ENV, raising=False)
        monkeypatch.chdir(tmp_path / "cifar")
        cfg = write_config(tmp_path, self.CIFAR)
        assert cli.main(["train", "--config", cfg]) == 2
        assert "CIFAR-10 directory not found: cifar" in capsys.readouterr().err

    # sizes come from CIFAR-10's 50 000 / 10 000 split, not the files
    @pytest.mark.parametrize("extra, fragment", [
        ({"dataset": {"subset_per_class": 0}},
         "fed.num_clients must be <= 0, the training split size"),
        ({"eval": {"members_per_client": 5001, "total_nonmembers": 10002}},
         "eval.total_nonmembers must be <= 10000, the test split size"),
        ({"dataset": {"subset_per_class": 5001}},
         "dataset.subset_per_class must be between 0 and 5000, CIFAR-10's "
         "training images per class, got 5001"),
    ], ids=["empty_subset", "nonmembers_beyond_test_split",
            "subset_beyond_cifar"])
    def test_data_size_from_config_exits_2(self, tmp_path, data_root,
                                           capsys, extra, fragment):
        cfg = json.loads(json.dumps(self.CIFAR))
        for key, value in extra.items():
            cfg[key].update(value)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 2
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_leaves_no_output_dir(self, tmp_path, data_root,
                                             capsys):
        # within CIFAR-10's bound, beyond the 10 images per class on disk
        cfg = json.loads(json.dumps(self.CIFAR))
        cfg["dataset"]["subset_per_class"] = 11
        out = tmp_path / "run"
        assert cli.main(["train", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 1
        assert "class 0 has 10 samples, need 11" in capsys.readouterr().err
        assert not out.exists()


def ref_build_architecture(cfg, num_classes, dims):
    """Frozen copy of the CLI's former layer-pattern builder."""
    layers = []
    for ch in cfg["arch"]["conv_channels"]:
        layers += [("conv", ch), ("maxpool",)]
    layers += [("flatten",), ("dense_relu", cfg["arch"]["dense_width"]),
               ("dense", num_classes)]
    return nn.ArchitectureDescriptor(input_shape=tuple(dims),
                                     layers=tuple(layers),
                                     num_classes=num_classes)


@pytest.mark.parametrize("arch, dims, classes", [
    (SMALL_CONFIG["arch"], SMALL_CONFIG["dataset"]["dims"],
     SMALL_CONFIG["dataset"]["classes"]),
    (cli.DEFAULT_CONFIG["arch"], cli.DEFAULT_CONFIG["dataset"]["dims"],
     cli.DEFAULT_CONFIG["dataset"]["classes"]),
    ({"conv_channels": [], "dense_width": 12}, [2, 6, 6], 3),
], ids=["small", "default", "no_conv"])
def test_default_architecture_matches_former_builder(arch, dims, classes):
    expected = ref_build_architecture({"arch": arch}, classes, dims)
    assert nn.default_architecture(dims, classes, **arch) == expected


def test_default_architecture_without_arguments_is_default_config():
    expected = ref_build_architecture(cli.DEFAULT_CONFIG, 10, (3, 32, 32))
    assert nn.default_architecture() == expected


def test_readme_flag_table_matches_parser():
    """README's "Configuration" table lists every flag of each subcommand,
    and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M))
    subparsers = next(action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(rows) == sorted(subparsers)
    for name, sub in subparsers.items():
        flags = {flag for action in sub._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"`(--[\w-]+)`", rows[name])) == flags, name
