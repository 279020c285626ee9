"""In-memory span tracer that wraps fedaudit's public functions.

A span is (id, name, start, end, parent id, thread id) within one run id.  Span
stacks are thread-local, so spans opened in worker threads never nest
under a span of another worker; a span opened on an otherwise empty
worker stack takes as parent the innermost span open on the thread that
installed the tracer (the caller blocked on the fan-out).  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.
"""

import functools
import itertools
import json
import threading
import time

ID, NAME, START, END, PARENT, THREAD = range(6)


def wrap_targets(cli, data, nn, tensors, federated, attacks, metrics):
    """(owner, attribute, span name) for every traced call site.

    ``attacks`` imports ``erosion_sequence`` by name, so that alias is
    wrapped as well as the ``tensors`` attribute; ``Model.query`` is
    wrapped on the class.  The ``cli.cmd_*`` spans are the end-to-end
    entry points, not a layer.
    """
    targets = [(cli, name, f"cli.{name}") for name in
               ("cmd_train", "cmd_attack", "cmd_ablate", "cmd_report",
                "measure_overhead")]
    targets += [(data, name, f"data.{name}") for name in
                ("generate_synthetic", "build_eval_set")]
    targets += [(nn, name, f"nn.{name}") for name in
                ("loss_and_gradients", "forward_batch", "sgd_step",
                 "save_checkpoint", "load_checkpoint")]
    targets.append((nn.Model, "query", "nn.Model.query"))
    targets.append((tensors, "erosion_sequence", "tensors.erosion_sequence"))
    targets.append((attacks, "erosion_sequence", "tensors.erosion_sequence"))
    targets += [(federated, name, f"federated.{name}") for name in
                ("run_federated_training", "local_train", "fedavg_aggregate")]
    targets += [(attacks, name, f"attacks.{name}") for name in
                ("confidence_trace", "evaluate_attacks", "write_scores_csv",
                 "read_scores_csv")]
    targets += [(metrics, name, f"metrics.{name}") for name in
                ("roc_curve", "accuracy_at_best_threshold", "per_client_auc",
                 "fpr_at_tpr", "build_report", "write_roc_csv")]
    return targets


class Tracer:
    def __init__(self, run_id, targets):
        self.run_id = run_id
        self.targets = targets
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = None
        self._originals = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][ID]
            else:
                try:
                    parent = tracer._home[-1][ID]
                except (IndexError, TypeError):
                    parent = None
            span = [next(tracer._ids), name, time.perf_counter(), None,
                    parent, threading.get_ident()]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
        return traced

    def install(self):
        self._home = self._stack()
        for owner, attr, name in self.targets:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        """Put every original back; returns True if all are restored."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        restored = all(owner.__dict__[attr] is original
                       for owner, attr, original in self._originals)
        self._originals = []
        return restored

    def write(self, path, header):
        """One JSON header line, then one [id, name, start, end, parent,
        thread] array per span; every span belongs to the header's run."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "run_id": self.run_id,
                "span_fields": ["id", "name", "start", "end", "parent",
                                "thread"],
                **header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the part its child spans cover}."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c[START], s[START]), min(c[END], s[END]))
                for c in children.get(s[ID], ())]
        covered = union_length([k for k in kids if k[1] > k[0]])
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def summarize(spans):
    """{name: {"calls", "total_s", "self_s"}} over all spans."""
    own = self_times(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s[NAME],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += own[s[ID]]
    return table
