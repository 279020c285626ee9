"""ROC/AUC evaluation, report assembly, and the results-CSV format.

The ROC construction sweeps all distinct score thresholds with tied
scores grouped (samples sharing a score enter the positive set
together), so constant scores yield exactly the diagonal.

report_and_curves sweeps each attack once: one sort, with the counts cut
at the end of each tie group, gives the curve, AUC, best-threshold
accuracy and FPR at 80% TPR, and each client's resmia subset is taken
from the resmia sort order.  Counts at group ends do not depend on the
order within a tie, so this gives the bits of sorting each pair list
afresh.
"""

import csv
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import files

REPORT_SCHEMA_VERSION = 1
# report.json's timing: empty, or these numbers from cli.measure_overhead
TIMING_KEYS = ("single_forward_ms", "resmia_probe_ms", "ratio")


class DegenerateScoresError(ValueError):
    """Raised when a score set has only one class or a non-finite score."""


def _pairs(scores):
    """(scores, member mask) arrays of an iterable of (score, is_member)
    pairs, read in one pass."""
    pairs = np.fromiter(map(tuple, scores),
                        [("score", np.float64), ("member", bool)])
    return pairs["score"], pairs["member"]


def _columns(records, names):
    """The member mask of records and their scores of each named attack,
    as arrays."""
    n = len(records)
    member = np.fromiter((r.is_member for r in records), bool, n)
    return member, {name: np.fromiter((r.scores[name] for r in records),
                                      np.float64, n) for name in names}


def _cut(vals, member):
    """Group ends of vals sorted high to low, and the member / non-member
    counts scoring >= each: (last, tps, fps)."""
    last = np.nonzero(np.diff(vals, append=-np.inf))[0]
    tps = np.cumsum(member)[last]
    return last, tps, last + 1 - tps


def _tie_groups(vals, member, attack="the"):
    """One attack's sweep: (order, thresholds, tps, fps).

    order sorts vals high to low (stable); thresholds holds the score of
    each tie group and tps / fps the cumulative counts scoring >= it, so
    tps[-1] and fps[-1] are the class sizes.  A NaN would be a tie group
    of its own, ranked by input order, so non-finite scores are refused.
    """
    n_pos = int(np.count_nonzero(member))
    if n_pos == 0 or n_pos == len(member):
        raise DegenerateScoresError(
            "need at least one member and one non-member")
    bad = len(vals) - int(np.count_nonzero(np.isfinite(vals)))
    if bad:
        raise DegenerateScoresError(
            f"{attack} scores hold {bad} non-finite values")
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    last, tps, fps = _cut(vals, member[order])
    return order, vals[last], tps, fps


def _curve(tps, fps):
    return np.column_stack((np.r_[0, fps] / int(fps[-1]),
                            np.r_[0, tps] / int(tps[-1])))


def _best_accuracy(thresholds, tps, fps):
    n_pos, n_neg = int(tps[-1]), int(fps[-1])
    acc = (tps + n_neg - fps) / (n_pos + n_neg)
    best = len(acc) - 1 - int(np.argmax(acc[::-1]))  # last = lowest thr
    return float(acc[best]), float(thresholds[best])


def _client_aucs(records, vals, order):
    """Resmia AUC of each client's members against all non-members; each
    client's subset is cut out of the resmia sweep's order."""
    ids = {}
    code = np.fromiter((ids.setdefault(r.client_id, len(ids))
                        if r.is_member else -1 for r in records),
                       np.intp, len(records))[order]
    vals, non_member = vals[order], code < 0
    aucs = {}
    for cid in sorted(ids):
        keep = non_member | (code == ids[cid])
        _, tps, fps = _cut(vals[keep], ~non_member[keep])
        aucs[cid] = auc(_curve(tps, fps))
    return aucs


def roc_curve(scores) -> np.ndarray:
    """(M, 2) rows of (fpr, tpr) from (0, 0) to (1, 1); scores: iterable
    of (score, is_member), higher = more member-like."""
    _, _, tps, fps = _tie_groups(*_pairs(scores))
    return _curve(tps, fps)


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
    _, thresholds, tps, fps = _tie_groups(*_pairs(scores))
    return _best_accuracy(thresholds, tps, fps)


def per_client_auc(records):
    """Resmia AUC of each client's members against all non-members."""
    member, columns = _columns(records, ["resmia"])
    if member.all():
        raise DegenerateScoresError("no non-member records")
    if not member.any():
        raise DegenerateScoresError("no member records")
    vals = columns["resmia"]
    return _client_aucs(records, vals, _tie_groups(vals, member)[0])


@dataclass
class MetricsReport:
    attacks: dict             # name -> {auc, accuracy, fpr_at_tpr80, threshold}
    per_client: dict          # client id -> resmia AUC
    client_auc_std: float
    query_counts: dict        # name -> queries per sample
    timing: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def derived(self) -> dict:
        """The fields that follow from the scored records, by JSON name;
        timing and metadata do not."""
        return {"attacks": self.attacks,
                "per_client_auc": {str(k): v
                                   for k, v in self.per_client.items()},
                "client_auc_std": self.client_auc_std,
                "query_counts": self.query_counts}

    def to_json(self) -> str:
        payload = {"schema_version": REPORT_SCHEMA_VERSION, **self.derived(),
                   "timing": self.timing, "metadata": self.metadata}
        return json.dumps(payload, indent=2, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str):
        """Inverse of to_json; a ValueError's text follows the file name.
        Refuses a missing key, a mapping field that is not a JSON object,
        a per_client_auc key that is not a client id and a timing that
        is neither empty nor the TIMING_KEYS numbers, naming the key."""
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
            timing = payload["timing"]
            if timing and (sorted(timing) != sorted(TIMING_KEYS) or not all(
                    type(v) in (int, float) for v in timing.values())):
                raise ValueError(f"has timing {timing!r}, not {{}} or the "
                                 f"numbers {', '.join(TIMING_KEYS)}")
            return cls(attacks=payload["attacks"],
                       per_client=per_client,
                       client_auc_std=payload["client_auc_std"],
                       query_counts=payload["query_counts"],
                       timing=timing,
                       metadata=payload["metadata"])
        except KeyError as exc:
            raise ValueError(f"has no key {exc}") from exc


def build_report(records, erosion_steps, timing=None,
                 metadata=None) -> MetricsReport:
    """Assemble the full metrics report from scored attack records."""
    return report_and_curves(records, erosion_steps, timing, metadata)[0]


def report_and_curves(records, erosion_steps, timing=None, metadata=None):
    """build_report's report, and each attack's (M, 2) ROC curve from the
    sweep that gave its row: (MetricsReport, {name: curve})."""
    member, columns = _columns(records, sorted(records[0].scores))
    attacks, orders, curves = {}, {}, {}
    for name, vals in columns.items():
        orders[name], thresholds, tps, fps = _tie_groups(vals, member, name)
        curves[name] = curve = _curve(tps, fps)
        acc, thr = _best_accuracy(thresholds, tps, fps)
        attacks[name] = {
            "auc": auc(curve),
            "accuracy": acc,
            "fpr_at_tpr80": fpr_at_tpr(curve, 0.8),
            "threshold": thr,
        }
    clients = _client_aucs(records, columns["resmia"], orders["resmia"])
    return MetricsReport(
        attacks=attacks,
        per_client=clients,
        client_auc_std=float(np.std(list(clients.values()))),
        query_counts={"resmia": erosion_steps + 1, "loss": 1, "entropy": 1},
        timing=timing or {},
        metadata=metadata or {}), curves


def write_roc_csv(path, curves_by_attack, metadata=None):
    """ROC polylines as CSV rows (attack, fpr, tpr)."""
    write_csv(path, ["attack", "fpr", "tpr"],
              ((name, fpr, tpr) for name in sorted(curves_by_attack)
               for fpr, tpr in zip(*curves_by_attack[name].T.tolist())),
              metadata)


# ---------------------------------------------------------------------------
# results-CSV format, shared by every output file: a `# key=value`
# metadata preamble (keys sorted), then a header row and data rows

# lines per write: the file is never one string, and 4096-line blocks
# raised the memory peak of a 20 000-record report
_CSV_BLOCK = 2048


def preamble(metadata):
    """The `# key=value` lines, keys sorted, one per metadata entry."""
    return "".join(f"# {key}={metadata[key]}\n"
                   for key in sorted(metadata or {}))


def write_csv(path, header, rows, metadata=None):
    """Write preamble, header and rows (sequences of header's length).

    Each cell is written with str, so a float is its repr and reruns are
    byte-identical; lines end in "\r\n", as csv.writer's do.  Nothing is
    quoted: a row of another length, or a cell holding ',', '"', '\r' or
    '\n', raises ValueError naming the file.  The lines are written in
    blocks through files.replacing, so a refusal leaves any earlier file
    at path as it was.
    """
    width = len(header)
    line = ",".join(["%s"] * width) + "\r\n"
    rows = itertools.chain([header], rows)
    with files.replacing(path, newline="") as fh:
        fh.write(preamble(metadata))
        while block := list(itertools.islice(rows, _CSV_BLOCK)):
            try:
                text = "".join([line % tuple(row) for row in block])
            except TypeError as exc:  # a cell too many or too few
                raise ValueError(f"{path}: a row does not have the "
                                 f"header's {width} cells") from exc
            # counted per block: a cell that needs quoting shifts a count
            n = len(block)
            if (text.count(",") != (width - 1) * n or '"' in text
                    or text.count("\r") != n or text.count("\n") != n):
                raise ValueError(f"{path}: a cell holds a comma, a quote "
                                 f"or a line break, which would need "
                                 f"quoting")
            fh.write(text)


def read_csv(path, header):
    """Inverse of write_csv: yields the preamble's metadata, then each data
    row as a list of strings.  A header other than `header` raises
    ValueError before the first row; the file closes when the rows are
    exhausted or the generator is closed."""
    with open(path, newline="") as fh:
        metadata = {}
        line = fh.readline()
        while line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition("=")
            metadata[key] = value
            line = fh.readline()
        yield metadata
        rows = csv.reader(itertools.chain([line], fh))
        got = next(rows, None)
        if got != list(header):
            raise ValueError(f"header {got!r} is not {','.join(header)}")
        yield from rows
