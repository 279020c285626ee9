"""fedaudit benchmark: one workload per process, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload fedavg --seed 0 --seconds 18 --trace 0

The program under test is imported from ``src/`` of the same checkout and
driven only through the public calls of its modules.  ``--trace 0``
measures the end-to-end metrics untraced; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of standard output is the JSON result.  See README.md beside this
file for why each workload exists and which layer metric should move
which end-to-end metric.

The benchmark reads ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` and records them, but never sets them: setting them
would hide how the program behaves with the threads its users get.
"""

import argparse
import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import kernels  # noqa: E402
from tracer import (END, NAME, START, Tracer, summarize,  # noqa: E402
                    union_length, wrap_targets)

WORKLOADS = ("fedavg", "fedavg-2w", "audit", "report-large")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7

END_TO_END = {"setup_s": "s", "task_s": "s", "peak_rss_mb": "MB"}

KERNEL_LAYERS = ("conv1", "conv2", "maxpool1", "maxpool2", "dense1",
                 "dense2")
PER_LAYER = {
    "nn.loss_and_gradients.calls": "count",
    "nn.loss_and_gradients.self_s": "s",
    "nn.forward_batch.calls": "count",
    "nn.forward_batch.self_s": "s",
    "nn.sgd_step.self_s": "s",
    "nn.Model.query.calls": "count",
    "nn.Model.query.self_s": "s",
    "nn.save_checkpoint.s": "s",
    "nn.load_checkpoint.s": "s",
    **{f"nn.kernel.{layer}.{row}_ms": "ms" for layer in KERNEL_LAYERS
       for row in ("fwd.b32", "bwd.b32", "fwd.b1")},
    **{f"nn.kernel.{layer}.{d}.b32_gflop_s": "GFLOP/s"
       for layer in ("conv1", "conv2") for d in ("fwd", "bwd")},
    "federated.local_train.calls": "count",
    "federated.local_train.self_s": "s",
    "federated.local_train.mean_ms": "ms",
    "federated.fedavg_aggregate.self_s": "s",
    "federated.round_ms_p50": "ms",
    "federated.fanout_concurrency": "ratio",
    "tensors.erosion_sequence.calls": "count",
    "tensors.erosion_sequence.self_s": "s",
    **{f"tensors.kernel.{k}_ms": "ms" for k in
       ("avg_pool", "upsample_nearest", "upsample_bilinear",
        "erosion_sequence_k3")},
    "attacks.confidence_trace.self_s": "s",
    "attacks.evaluate_attacks.self_s": "s",
    "attacks.queries_per_sample": "count",
    "attacks.write_scores_csv.s": "s",
    "attacks.read_scores_csv.s": "s",
    **{f"metrics.{f}.self_s": "s" for f in
       ("roc_curve", "accuracy_at_best_threshold", "per_client_auc",
        "fpr_at_tpr", "build_report", "write_roc_csv")},
    "data.generate_synthetic.s": "s",
    "data.build_eval_set.s": "s",
    "cli.measure_overhead.s": "s",
    "cli.measure_overhead.ratio": "ratio",
    "trace.overhead_pct": "%",
    "trace.uncovered_pct": "%",
}

# Minimal sizes for the smoke test; the eval set stays balanced
# (5 clients x 4 members == 20 non-members) and every shard holds 8.
SMOKE_CONFIG = {
    "dataset": {"per_class": 4, "test_per_class": 2},
    "fed": {"rounds": 2, "local_epochs": 1},
    "eval": {"members_per_client": 4, "total_nonmembers": 20},
}


def sha256(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def quietly(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def machine():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": blas,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


class Run:
    """One benchmark invocation: its sizes, checks, passes and results."""

    def __init__(self, args, corrupt=False):
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.corrupt = corrupt
        self.run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        self.work = OUT / f"work-{os.getpid()}"
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.setup_s = None
        self.task_s = None
        self.info = {}          # workload-specific results: name -> (v, unit)
        self.layer = {}         # per-layer values filled by the workload
        self.plain_walls = []
        self.traced_windows = []

    # -- checks -----------------------------------------------------------

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name} {detail}".rstrip(), file=sys.stderr)

    def output_digest(self, pass_idx, *paths):
        """sha256 of a pass's outputs; with ``corrupt`` set, pass 0's
        first output gets one byte flipped first (smoke test only)."""
        if self.corrupt and pass_idx == 0:
            raw = bytearray(Path(paths[0]).read_bytes())
            raw[-1] ^= 1
            Path(paths[0]).write_bytes(bytes(raw))
        return sha256(*paths)

    # -- configuration ----------------------------------------------------

    def config(self, name):
        from fedaudit import cli
        over = {"seed": self.seed, "out_dir": str(self.work / name)}
        if self.smoke:
            over.update(SMOKE_CONFIG)
        return cli.load_config(None, over)

    # -- timing -----------------------------------------------------------

    def setup(self, build):
        """Build the workload's inputs SETUP_REPS times; keep the median."""
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            result = build()
            times.append(time.perf_counter() - t0)
        self.setup_s = statistics.median(times)
        return result

    def passes(self, one_pass):
        """Repeat one_pass(index, traced) until --seconds have passed;
        the last pass may run over.  A traced run alternates an untraced
        and a traced pass.  Checks that every pass produced the same
        output digest; returns the digests."""
        digests = []
        modes = (False, True) if self.tracer else (False,)
        start = time.perf_counter()
        while True:
            for traced in modes:
                if traced:
                    self.tracer.install()
                t0 = time.perf_counter()
                try:
                    digests.append(one_pass(len(digests), traced))
                finally:
                    t1 = time.perf_counter()
                    if traced:
                        self.check("tracer restored every original",
                                   self.tracer.uninstall())
                if traced:
                    self.traced_windows.append((t0, t1))
                else:
                    self.plain_walls.append(t1 - t0)
            if time.perf_counter() - start >= self.seconds:
                break
        if len(digests) > 1:
            self.check("outputs identical across passes of one seed"
                       + (" (traced and untraced)" if self.tracer else ""),
                       len(set(digests)) == 1, str(sorted(set(digests))))
        self.task_s = statistics.median(self.plain_walls)
        return digests


# ---------------------------------------------------------------------------
# workloads


def read_training_log(path):
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("# ")]
    return list(csv.DictReader(rows))


def fedavg(run, workers):
    from fedaudit import cli
    run.setup(lambda: cli.build_datasets(run.config("train")))
    reference = None
    if workers > 1 and run.tracer is None:
        ref_cfg = run.config("train-1w")
        quietly(cli.cmd_train, ref_cfg, workers=1)
        reference = sha256(Path(ref_cfg["out_dir"]) / "model.ckpt")
    accs = []

    def one_pass(i, traced):
        cfg = run.config(f"train/{i}")
        quietly(cli.cmd_train, cfg, workers=workers)
        out = Path(cfg["out_dir"])
        accs.append(float(read_training_log(out / "training_log.csv")[-1][
            "test_acc"]))
        return run.output_digest(i, out / "model.ckpt")

    digests = run.passes(one_pass)
    if reference is not None:
        run.check("fedavg-2w checkpoint equals the fedavg checkpoint",
                  all(d == reference for d in digests))
    run.check("final test accuracy is a finite fraction",
              all(0.0 <= a <= 1.0 for a in accs), str(accs))
    run.info["train_s"] = (run.task_s, "s")
    run.info["test_acc_final"] = (accs[-1], "fraction")


def audit(run):
    from fedaudit import attacks, cli, data, federated, nn
    fixture = run.config("fixture")
    quietly(cli.cmd_train, fixture, workers=1)
    ckpt = str(Path(fixture["out_dir"]) / "model.ckpt")
    cfg = run.config("audit")

    def prepare():
        model = nn.load_checkpoint(ckpt)
        train, test = cli.build_datasets(cfg)
        shards = federated.partition(train, cfg["fed"]["num_clients"],
                                     cfg["seed"])
        eval_set = data.build_eval_set(
            shards, test, cfg["eval"]["members_per_client"],
            cfg["eval"]["total_nonmembers"], cfg["seed"])
        return model, attacks.gather_eval_samples(eval_set, train, test)

    model, samples = run.setup(prepare)
    ero = cli.erosion_config(cfg)
    n, k1 = len(samples), ero.steps + 1
    defaults = inspect.signature(cli.measure_overhead).parameters
    overhead_queries = ((defaults["n_samples"].default
                         + defaults["warmup"].default) * (1 + k1))
    attack_s, ablate_s, probe_ms, per_sample, aucs, ratios = \
        [], [], [], [], [], []

    def one_pass(i, traced):
        cfg = run.config(f"audit/{i}")
        out = Path(cfg["out_dir"])
        loaded = []
        load = nn.load_checkpoint

        def capture(path):
            m = load(path)
            loaded.append((m, m.query_count))
            return m

        nn.load_checkpoint = capture
        try:
            t0 = time.perf_counter()
            quietly(cli.cmd_attack, cfg, ckpt)
            t1 = time.perf_counter()
            quietly(cli.cmd_ablate, cfg, ckpt)
            t2 = time.perf_counter()
        finally:
            nn.load_checkpoint = load
        before = model.query_count
        probes = []
        for s in samples:
            ta = time.perf_counter()
            attacks.confidence_trace(model, s.image, ero)
            probes.append((time.perf_counter() - ta) * 1e3)
        per_sample.append((model.query_count - before) / n)
        if not traced:
            attack_s.append(t1 - t0)
            ablate_s.append(t2 - t1)
            probe_ms.extend(probes)

        (m_att, q_att), (m_abl, q_abl) = loaded
        run.check("attack queries == samples*(K+1) + measure_overhead's",
                  m_att.query_count - q_att == n * k1 + overhead_queries,
                  f"{m_att.query_count - q_att}")
        run.check("ablate queries == 2 modes * samples*(K+1)",
                  m_abl.query_count - q_abl == 2 * n * k1)
        run.check("probe pass queries == samples*(K+1)",
                  per_sample[-1] == k1, f"{per_sample[-1]}")
        report = json.loads((out / "report.json").read_text())
        with open(out / "ablation.csv", newline="") as fh:
            ablation = [float(r["auc_resmia"]) for r in csv.DictReader(
                line for line in fh if not line.startswith("# "))]
        values = ([row["auc"] for row in report["attacks"].values()]
                  + list(report["per_client_auc"].values()) + ablation)
        run.check("AUCs are finite", len(ablation) == 2 and all(
            math.isfinite(v) for v in values), str(values))
        aucs.append(report["attacks"]["resmia"]["auc"])
        ratios.append(report["timing"]["ratio"])
        return run.output_digest(i, out / "scores.csv")

    run.passes(one_pass)
    run.info.update({
        "attack_s": (statistics.median(attack_s), "s"),
        "ablate_s": (statistics.median(ablate_s), "s"),
        "probe_ms_p50": (statistics.median(probe_ms), "ms"),
        "probe_ms_p99": (percentile(probe_ms, 99), "ms"),
        "probe_samples": (len(probe_ms), "count"),
        "auc_resmia": (aucs[-1], "AUC"),
    })
    run.layer["attacks.queries_per_sample"] = statistics.median(per_sample)
    run.layer["cli.measure_overhead.ratio"] = statistics.median(ratios)


def score_records(attacks, seed, nonmembers, members_per_client, clients=5):
    """Seeded scores shaped like a full CIFAR-10 test-split audit.

    Members score higher on every attack on average; all values are
    distinct within an attack, as in real scores.csv files.
    """
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence([seed, 777]))
    n_mem = clients * members_per_client
    member = np.arange(n_mem + nonmembers) < n_mem
    z = rng.standard_normal((3, len(member))) + np.outer([0.8, 0.6, 0.5],
                                                         member)
    columns = {"resmia": 0.05 * z[0],
               "loss": 1.0 / (1.0 + np.exp(-1.5 - z[1])),
               "entropy": -np.log(10.0) / (1.0 + np.exp(1.0 + z[2]))}
    for name, values in columns.items():
        if np.unique(values).size != len(values):
            raise RuntimeError(f"generated {name} scores are not distinct")
    records = []
    for i in range(len(member)):
        is_member = bool(member[i])
        records.append(attacks.AttackRecord(
            sample_id=i if is_member else 1_000_000 + i - n_mem,
            client_id=i // members_per_client if is_member else "nonmember",
            is_member=is_member,
            scores={name: float(v[i]) for name, v in columns.items()},
            queries_resmia=4))
    return records


def rank_auc(records, name):
    """Mann-Whitney AUC for distinct scores, independent of metrics."""
    import numpy as np
    vals = np.array([r.scores[name] for r in records])
    member = np.array([r.is_member for r in records])
    ranks = np.empty(len(vals))
    ranks[np.argsort(vals)] = np.arange(1, len(vals) + 1)
    n_pos = int(member.sum())
    n_neg = len(vals) - n_pos
    return (ranks[member].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def report_large(run):
    from fedaudit import attacks, cli, metrics
    nonmembers, per_client = (200, 40) if run.smoke else (10_000, 2_000)
    records = run.setup(lambda: score_records(attacks, run.seed, nonmembers,
                                              per_client))
    meta = {"config_hash": "report-large", "seed": run.seed}
    reports = []

    def one_pass(i, traced):
        out = run.work / "report" / str(i)
        out.mkdir(parents=True)
        attacks.write_scores_csv(out / "scores.csv", records, metadata=meta)
        report = metrics.build_report(records, 3, metadata=meta)
        (out / "report.json").write_text(report.to_json() + "\n")
        quietly(cli.cmd_report, str(out))
        reports.append(report)
        return run.output_digest(i, out / "roc.csv", out / "scores.csv",
                                 out / "summary.txt")

    run.passes(one_pass)
    back, _ = attacks.read_scores_csv(run.work / "report" / "0" / "scores.csv")
    run.check("scores.csv reads back to the written records",
              [(r.sample_id, r.client_id, r.is_member, r.scores)
               for r in back] ==
              [(r.sample_id, r.client_id, r.is_member, r.scores)
               for r in records])
    report = reports[-1]
    for name in attacks.ATTACK_NAMES:
        got, want = report.attacks[name]["auc"], rank_auc(records, name)
        run.check(f"{name} AUC equals the rank statistic",
                  math.isfinite(got) and abs(got - want) < 1e-9,
                  f"{got} vs {want}")
    run.check("per-client AUC for every client",
              sorted(report.per_client) == list(range(5)) and all(
                  math.isfinite(v) for v in report.per_client.values()))
    run.info["report_s"] = (run.task_s, "s")
    run.info["auc_resmia"] = (report.attacks["resmia"]["auc"], "AUC")
    run.info["records"] = (len(records), "count")


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes


def federated_rounds(spans):
    """(round wall times, client fan-out walls, local_train durations) in s.

    A round runs from its first local_train start to the next round's;
    its fan-out runs from that start to its last local_train end.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    local_all = by_name.get("federated.local_train", [])
    rounds, fanouts = [], []
    for run_span in by_name.get("federated.run_federated_training", []):
        lo, hi = run_span[START], run_span[END]
        aggs = sorted((s for s in by_name.get("federated.fedavg_aggregate", [])
                       if lo <= s[START] <= hi), key=lambda s: s[START])
        local = [s for s in local_all if lo <= s[START] <= hi]
        starts, prev_end = [], lo
        for agg in aggs:
            clients = [s for s in local if prev_end <= s[START] < agg[START]]
            if clients:
                first = min(s[START] for s in clients)
                starts.append(first)
                fanouts.append(max(s[END] for s in clients) - first)
            prev_end = agg[END]
        bounds = starts + [hi]
        rounds += [b - a for a, b in zip(bounds, bounds[1:])]
    durations = [s[END] - s[START] for s in local_all]
    return rounds, fanouts, durations


def layer_metrics(run, kernel_rows, gflops):
    spans = run.tracer.spans
    passes = len(run.traced_windows)
    traced_walls = [hi - lo for lo, hi in run.traced_windows]
    table = summarize(spans)

    def get(name, key):
        return table.get(name, {}).get(key, 0.0) / passes

    m = {}
    for metric in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if key in ("calls", "self_s"):
            m[metric] = get(head, key)
        elif key == "s":
            m[metric] = get(head, "total_s")
    rounds, fanouts, durations = federated_rounds(spans)
    m["federated.round_ms_p50"] = (statistics.median(rounds) * 1e3
                                   if rounds else 0.0)
    m["federated.local_train.mean_ms"] = (statistics.fmean(durations) * 1e3
                                          if durations else 0.0)
    m["federated.fanout_concurrency"] = (sum(durations) / sum(fanouts)
                                         if fanouts else 0.0)
    for name, ms, _ in kernel_rows:
        m[f"{name}_ms"] = ms
    for name, value in gflops.items():
        m[f"{name}_gflop_s"] = value
    m["attacks.queries_per_sample"] = run.layer.get(
        "attacks.queries_per_sample", 0.0)
    m["cli.measure_overhead.ratio"] = run.layer.get(
        "cli.measure_overhead.ratio", 0.0)
    plain = statistics.median(run.plain_walls)
    m["trace.overhead_pct"] = (statistics.median(traced_walls) - plain) \
        / plain * 100.0
    layer_spans = [s for s in spans if not s[NAME].startswith("cli.cmd_")]
    uncovered = 0.0
    for lo, hi in run.traced_windows:
        inside = [(max(s[START], lo), min(s[END], hi)) for s in layer_spans
                  if s[END] > lo and s[START] < hi]
        uncovered += (hi - lo) - union_length(inside)
    m["trace.uncovered_pct"] = uncovered / sum(traced_walls) * 100.0
    return m


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def main(argv=None, corrupt=False):
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from fedaudit import (attacks, cli, data, federated, metrics, nn,
                              tensors)
    except ImportError as exc:
        print(f"cannot import fedaudit from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"fedaudit imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    run = Run(args, corrupt=corrupt)
    env = machine()
    kernel_rows, gflops = [], {}
    if args.trace:
        reps = (2, 2) if args.smoke else (20, 50)
        kernel_rows, gflops = kernels.layer_rows(nn, args.seed, *reps)
        kernel_rows += kernels.tensor_rows(tensors, args.seed, reps[1])
        run.tracer = Tracer(run.run_id, wrap_targets(
            cli, data, nn, tensors, federated, attacks, metrics))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "fedavg":
            fedavg(run, workers=1)
        elif args.workload == "fedavg-2w":
            fedavg(run, workers=2)
        elif args.workload == "audit":
            audit(run)
        else:
            report_large(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"machine: {json.dumps(env, sort_keys=True)}")
    print(f"run: {run.run_id} untraced_passes={len(run.plain_walls)} "
          f"traced_passes={len(run.traced_windows)}")
    if args.trace:
        values = layer_metrics(run, kernel_rows, gflops)
        metrics_out = {k: {"value": values[k], "unit": u}
                       for k, u in PER_LAYER.items()}
        for name, ms, digest in kernel_rows:
            print(f"{name}: {ms!r} ms checksum={digest}")
        OUT.mkdir(exist_ok=True)
        run.tracer.write(OUT / f"trace-{run.run_id}.jsonl", {
            "machine": env,
            "kernels": [{"row": n, "ms": ms, "checksum": d}
                        for n, ms, d in kernel_rows],
            "per_layer": values})
    else:
        values = {"setup_s": run.setup_s, "task_s": run.task_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics_out = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
    for name, (value, unit) in run.info.items():
        print(f"{name} = {value!r} {unit}")
    print(f"fail_ratio = {run.failed / run.attempted!r} "
          f"({run.failed}/{run.attempted})")
    for name, row in metrics_out.items():
        print(f"{name} = {row['value']!r} {row['unit']}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
