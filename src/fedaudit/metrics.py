"""ROC/AUC evaluation, report assembly, and the results-CSV format.

The ROC construction sweeps all distinct score thresholds with tied
scores grouped (samples sharing a score enter the positive set
together), so constant scores yield exactly the diagonal.
"""

import csv
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

REPORT_SCHEMA_VERSION = 1


class DegenerateScoresError(ValueError):
    """Raised when a score set has only one class."""


def _split_scores(scores):
    vals = np.array([s for s, _ in scores], dtype=np.float64)
    labels = np.array([bool(m) for _, m in scores])
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise DegenerateScoresError(
            "need at least one member and one non-member")
    return vals, labels, n_pos


def _tie_groups(scores):
    """Scores sorted high to low, cut at the end of each tie group.

    Returns (vals, tps, fps, n_pos, n_neg): the score of each group and
    the cumulative member / non-member counts scoring >= it.
    """
    vals, labels, n_pos = _split_scores(scores)
    order = np.argsort(-vals, kind="stable")
    vals, labels = vals[order], labels[order]
    last = np.nonzero(np.diff(vals, append=-np.inf))[0]
    tps = np.cumsum(labels)[last]
    fps = np.cumsum(~labels)[last]
    return vals[last], tps, fps, n_pos, len(labels) - n_pos


def roc_curve(scores) -> np.ndarray:
    """(M, 2) rows of (fpr, tpr) from (0, 0) to (1, 1); scores: iterable
    of (score, is_member), higher = more member-like."""
    _, tps, fps, n_pos, n_neg = _tie_groups(scores)
    return np.column_stack((np.r_[0, fps] / n_neg, np.r_[0, tps] / n_pos))


def auc(curve) -> float:
    """Trapezoidal area; equals P(member > non-member) + 0.5 P(tie)."""
    fpr, tpr = curve.T
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) * 0.5))


def fpr_at_tpr(curve, target_tpr: float) -> float:
    """Smallest achievable FPR with TPR >= target, interpolating linearly
    between adjacent curve vertices."""
    if not 0.0 < target_tpr <= 1.0:
        raise ValueError(f"target TPR must be in (0, 1], got {target_tpr}")
    fpr, tpr = curve.T
    i = int(np.searchsorted(tpr, target_tpr))  # tpr is non-decreasing
    if i == len(tpr):
        return 1.0  # unreachable: curve ends at TPR 1
    if i == 0 or tpr[i] == tpr[i - 1]:
        return float(fpr[i])
    t = (target_tpr - tpr[i - 1]) / (tpr[i] - tpr[i - 1])
    return float(fpr[i - 1] + t * (fpr[i] - fpr[i - 1]))


def accuracy_at_best_threshold(scores):
    """Best (TP+TN)/total over swept thresholds; returns (acc, threshold).

    Prediction rule: member iff score >= threshold.  The threshold is
    chosen on the evaluation scores themselves (oracle-threshold
    accuracy); accuracy ties resolve toward the lower threshold.
    """
    vals, tps, fps, n_pos, n_neg = _tie_groups(scores)
    acc = (tps + n_neg - fps) / (n_pos + n_neg)
    best = len(acc) - 1 - int(np.argmax(acc[::-1]))  # last = lowest thr
    return float(acc[best]), float(vals[best])


def per_client_auc(records):
    """Resmia AUC of each client's members against all non-members."""
    non_member = [(r.scores["resmia"], False) for r in records
                  if not r.is_member]
    if not non_member:
        raise DegenerateScoresError("no non-member records")
    by_client = {}
    for r in records:
        if r.is_member:
            by_client.setdefault(r.client_id, []).append(
                (r.scores["resmia"], True))
    if not by_client:
        raise DegenerateScoresError("no member records")
    return {cid: auc(roc_curve(member + non_member))
            for cid, member in sorted(by_client.items())}


@dataclass
class MetricsReport:
    attacks: dict             # name -> {auc, accuracy, fpr_at_tpr80, threshold}
    per_client: dict          # client id -> resmia AUC
    client_auc_std: float
    query_counts: dict        # name -> queries per sample
    timing: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "attacks": self.attacks,
            "per_client_auc": {str(k): v for k, v in self.per_client.items()},
            "client_auc_std": self.client_auc_std,
            "query_counts": self.query_counts,
            "timing": self.timing,
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of to_json; a ValueError's text follows the file name.
        Refuses a missing key, a mapping field that is not a JSON object
        and a per_client_auc key that is not a client id, naming the
        key."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("is not a JSON object")
        try:
            version = payload["schema_version"]
            if version != REPORT_SCHEMA_VERSION:
                raise ValueError(f"has schema_version {version!r}, not "
                                 f"{REPORT_SCHEMA_VERSION}")
            for key in ("attacks", "per_client_auc", "query_counts",
                        "timing", "metadata"):
                if not isinstance(payload[key], dict):
                    raise ValueError(f"has {key} of type "
                                     f"{type(payload[key]).__name__}, "
                                     f"not a JSON object")
            try:
                per_client = {int(k): v for k, v
                              in payload["per_client_auc"].items()}
            except ValueError as exc:
                raise ValueError(f"has per_client_auc {exc}") from exc
            return cls(attacks=payload["attacks"],
                       per_client=per_client,
                       client_auc_std=payload["client_auc_std"],
                       query_counts=payload["query_counts"],
                       timing=payload["timing"],
                       metadata=payload["metadata"])
        except KeyError as exc:
            raise ValueError(f"has no key {exc}") from exc


def build_report(records, erosion_steps, timing=None,
                 metadata=None) -> MetricsReport:
    """Assemble the full metrics report from scored attack records."""
    attacks = {}
    for name in sorted(records[0].scores):
        scores = [(r.scores[name], r.is_member) for r in records]
        curve = roc_curve(scores)
        acc, thr = accuracy_at_best_threshold(scores)
        attacks[name] = {
            "auc": auc(curve),
            "accuracy": acc,
            "fpr_at_tpr80": fpr_at_tpr(curve, 0.8),
            "threshold": thr,
        }
    clients = per_client_auc(records)
    return MetricsReport(
        attacks=attacks,
        per_client=clients,
        client_auc_std=float(np.std(list(clients.values()))),
        query_counts={"resmia": erosion_steps + 1, "loss": 1, "entropy": 1},
        timing=timing or {},
        metadata=metadata or {})


def write_roc_csv(path, curves_by_attack, metadata=None):
    """ROC polylines as CSV rows (attack, fpr, tpr)."""
    write_csv(path, ["attack", "fpr", "tpr"],
              ([name, repr(float(fpr)), repr(float(tpr))]
               for name in sorted(curves_by_attack)
               for fpr, tpr in curves_by_attack[name]),
              metadata)


# ---------------------------------------------------------------------------
# results-CSV format, shared by every output file: a `# key=value`
# metadata preamble (keys sorted), then a header row and data rows


def preamble(metadata):
    """The `# key=value` lines, keys sorted, one per metadata entry."""
    return "".join(f"# {key}={metadata[key]}\n"
                   for key in sorted(metadata or {}))


def write_csv(path, header, rows, metadata=None):
    """Write preamble, header and rows; cells are written as given, so
    callers format floats with repr for byte-identical reruns."""
    with open(path, "w", newline="") as fh:
        fh.write(preamble(metadata))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    """Inverse of write_csv: returns (row iterator, metadata).

    The preamble is read up front; rows stream as dicts keyed by the
    header, and the file closes when they are exhausted or the iterator
    is closed.
    """
    rows = _read_csv(path)
    return rows, next(rows)


def _read_csv(path):
    with open(path, newline="") as fh:
        metadata = {}
        line = fh.readline()
        while line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition("=")
            metadata[key] = value
            line = fh.readline()
        yield metadata
        yield from csv.DictReader(itertools.chain([line], fh))
