"""Training-free membership attacks over the black-box query facade.

Three scores, all oriented "higher = more member-like":

* resmia   — average per-step drop of the predicted-class confidence
             under progressive resolution erosion (K+1 queries)
* loss     — max class probability on the original image (1 query)
* entropy  — negated Shannon entropy of the output distribution (1 query)

No gradients and no parameter access anywhere: everything goes through
the query facade, ``model.query`` for one image and ``model.query_batch``
for a stack.  Its rows are batch-invariant, so a score is the same
whether its K+1 queries went one at a time or in a batch.
"""

import csv
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .metrics import ScoreColumns, read_csv, write_csv
from .tensors import ErosionConfig, erosion_sequence

ATTACK_NAMES = ("resmia", "loss", "entropy")

# images per query_batch call in evaluate_attacks; 64 raised the peak
# RSS of an audit where 32 lowered it
QUERY_BATCH = 32

SCORES_CSV_COLUMNS = ("sample_id", "client_id", "is_member", "score_resmia",
                      "score_loss", "score_entropy", "queries_resmia")


# is_member as write_scores_csv writes it: any other text, such as "2"
# or " 1", is refused rather than read as a member
_IS_MEMBER = {"0": False, "1": True}

# data rows read_scores_csv parses at a time, so no more than this many
# rows of strings are held at once
_READ_BLOCK = 2048


class ScoresCsvError(ValueError):
    """A scores CSV that write_scores_csv could not have written."""


@dataclass
class ConfidenceTrace:
    """Model responses along one image's erosion path.

    target_probs[k] is the probability of the class predicted on the
    original image, evaluated on the k-th erosion iterate.
    """

    target_probs: np.ndarray   # float64, length K+1
    initial_probs: np.ndarray  # full probability vector on the original


def confidence_trace(model, img, cfg: ErosionConfig) -> ConfidenceTrace:
    """Query the model on every erosion iterate: exactly K+1 queries.

    The predicted class is the argmax on the original image, ties broken
    toward the lowest class index (numpy argmax convention).
    """
    return _trace(np.array([model.query(x)
                            for x in erosion_sequence(img, cfg)],
                           dtype=np.float64))


def _trace(probs):
    """ConfidenceTrace of the (K+1, classes) responses along one path."""
    y_star = int(probs[0].argmax())
    return ConfidenceTrace(target_probs=probs[:, y_star],
                           initial_probs=probs[0])


def resmia_score(trace: ConfidenceTrace) -> float:
    """Average confidence drop per erosion step (sum form).

    May be negative when erosion raises the confidence; scores are not
    clamped.
    """
    p = trace.target_probs
    k = len(p) - 1
    if k < 1:
        raise ValueError("confidence decay needs at least one erosion step")
    return float(np.sum(p[:-1] - p[1:]) / k)


def resmia_score_closed(trace: ConfidenceTrace) -> float:
    """Telescoped form: (first - last) / K.  Equal to the sum form."""
    p = trace.target_probs
    k = len(p) - 1
    if k < 1:
        raise ValueError("confidence decay needs at least one erosion step")
    return float((p[0] - p[-1]) / k)


def loss_attack_score(model, img) -> float:
    """Top-1 confidence on the unmodified image; one query."""
    p = np.asarray(model.query(img), dtype=np.float64)
    return float(p.max())


def negated_entropy(probs) -> float:
    """-H(p) with 0*ln(0) := 0, so a one-hot output scores 0 (maximal)."""
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return float(terms.sum())


def entropy_attack_score(model, img) -> float:
    """Negated output entropy; one query."""
    return negated_entropy(model.query(img))


@dataclass
class EvalSample:
    sample_id: int
    client_id: object          # int for members, "nonmember" otherwise
    is_member: bool
    image: np.ndarray


@dataclass
class AttackRecord:
    sample_id: int
    client_id: object
    is_member: bool
    scores: dict = field(default_factory=dict)
    queries_resmia: int = 0


def gather_eval_samples(eval_set, train_set, test_set):
    """Materialize EvalSamples (with images) from an EvalSet's id lists."""
    train_pos = {int(i): k for k, i in enumerate(train_set.ids)}
    test_pos = {int(i): k for k, i in enumerate(test_set.ids)}
    samples = []
    for sid, cid in eval_set.members:
        samples.append(EvalSample(sid, cid, True,
                                  train_set.images[train_pos[sid]]))
    for sid in eval_set.non_members:
        samples.append(EvalSample(sid, "nonmember", False,
                                  test_set.images[test_pos[sid]]))
    return samples


def _record(sample, trace):
    # the x0 response is shared: both baselines are functions of the same
    # probability vector the trace already paid one query for
    scores = {
        "resmia": resmia_score(trace),
        "loss": float(trace.initial_probs.max()),
        "entropy": negated_entropy(trace.initial_probs),
    }
    return AttackRecord(sample_id=sample.sample_id,
                        client_id=sample.client_id,
                        is_member=sample.is_member,
                        scores=scores,
                        queries_resmia=len(trace.target_probs))


def evaluate_attacks(model, samples, cfg: ErosionConfig):
    """Score every eval sample with all three attacks, on the calling
    thread; records come back ordered by (is_member desc, sample_id).

    Samples are eroded a few at a time and their K+1 iterates each go
    to the model as one query_batch of at most QUERY_BATCH images.  The
    scores are those of per-sample confidence_trace calls, and the
    model's counter must move by exactly K+1 per sample: RuntimeError
    otherwise.
    """
    members = sum(1 for s in samples if s.is_member)
    if members == 0 or members == len(samples):
        raise ValueError("eval set needs both members and non-members")
    k1 = cfg.steps + 1
    per_batch = max(1, QUERY_BATCH // k1)
    before = model.query_count
    records = []
    for lo in range(0, len(samples), per_batch):
        chunk = samples[lo:lo + per_batch]
        seq = erosion_sequence(np.stack([s.image for s in chunk]), cfg)
        # sample-major: sample j's K+1 iterates are rows j*k1 .. j*k1+K
        stack = np.stack(seq, axis=1).reshape(-1, *seq[0].shape[1:])
        probs = np.asarray(model.query_batch(stack), dtype=np.float64)
        records += [_record(s, _trace(p)) for s, p in
                    zip(chunk, probs.reshape(len(chunk), k1, -1))]
    spent, want = model.query_count - before, len(samples) * k1
    if spent != want:
        raise RuntimeError(f"scoring {len(samples)} samples at {k1} "
                           f"queries each should cost {want} queries, "
                           f"the model counted {spent}")
    records.sort(key=lambda r: (not r.is_member, r.sample_id))
    return records


def write_scores_csv(path, records, metadata=None):
    """Dump records with a `# key=value` metadata preamble.

    Floats are written as their repr, so reruns are byte-identical.
    """
    write_csv(path, SCORES_CSV_COLUMNS,
              ((r.sample_id, r.client_id, int(r.is_member),
                r.scores["resmia"], r.scores["loss"], r.scores["entropy"],
                r.queries_resmia) for r in records),
              metadata)


class ScoresTable(Sequence):
    """read_scores_csv's data rows, held as columns.

    columns is the metrics.ScoreColumns that report sweeps; sample_id
    and queries_resmia hold one Python int per row.  Indexing or
    iterating builds a row's AttackRecord when it is asked for.
    """

    def __init__(self, sample_id, columns, queries_resmia):
        self.sample_id = sample_id
        self.columns = columns
        self.queries_resmia = queries_resmia

    def __len__(self):
        return len(self.sample_id)

    def __getitem__(self, i):
        sid, code = self.sample_id[i], int(self.columns.client[i])
        return AttackRecord(
            sid, self.columns.client_ids[code] if code >= 0 else "nonmember",
            code >= 0,
            {name: float(self.columns.scores[name][i])
             for name in ATTACK_NAMES},
            self.queries_resmia[i])


def read_scores_csv(path):
    """Inverse of write_scores_csv; returns (ScoresTable, metadata).

    The data rows are parsed _READ_BLOCK at a time, one column at a
    time: every score with float, every sample_id with int, and each
    distinct client_id and queries_resmia text once.  ScoresCsvError
    names the path and the first data row that does not parse, including
    one with a field more or less than the header, an is_member other
    than 0 or 1, a member whose client_id is not an int or a non-member
    whose client_id is not nonmember; a header other than
    SCORES_CSV_COLUMNS fails at row 1.
    """
    sample_id, queries, scores = [], [], {name: [] for name in ATTACK_NAMES}
    # client_id text -> code: -1 for non-members, then 0, 1, ... for the
    # member texts in the order they are first seen
    codes, client_code = [], {"nonmember": -1}
    queries_int = {}  # queries_resmia text -> int
    rows = read_csv(path, SCORES_CSV_COLUMNS)
    try:
        metadata = next(rows)
        while block := list(itertools.islice(rows, _READ_BLOCK)):
            if set(map(len, block)) != {len(SCORES_CSV_COLUMNS)}:
                raise ValueError("a row of another width")
            sid, cid, member, resmia, loss, entropy, queries_text = zip(*block)
            for is_member, text in set(zip(member, cid)):
                if _IS_MEMBER[is_member] != (text != "nonmember"):
                    raise ValueError("client_id does not fit is_member")
                if text not in client_code:
                    int(text)
                    client_code[text] = len(client_code) - 1
            codes.append(np.fromiter(map(client_code.__getitem__, cid),
                                     np.intp, len(cid)))
            sample_id += map(int, sid)
            for text in set(queries_text) - queries_int.keys():
                queries_int[text] = int(text)
            queries += map(queries_int.__getitem__, queries_text)
            for name, cells in zip(ATTACK_NAMES, (resmia, loss, entropy)):
                scores[name].append(np.fromiter(map(float, cells),
                                                np.float64, len(cells)))
    except (ValueError, KeyError, csv.Error) as exc:
        row, fault = _first_bad_row(path)
        raise ScoresCsvError(f"{path}: data row {row} {fault}") from exc
    finally:
        rows.close()
    columns = ScoreColumns.ranked(
        np.concatenate([np.empty(0, np.intp)] + codes),
        [int(text) for text in client_code if text != "nonmember"],
        {name: np.concatenate([np.empty(0)] + pieces)
         for name, pieces in scores.items()})
    return ScoresTable(sample_id, columns, queries), metadata


def _first_bad_row(path):
    """(row, fault) of the first data row read_scores_csv refuses, found
    by walking the rows one at a time: its failure path."""
    rows = read_csv(path, SCORES_CSV_COLUMNS)
    row = 1
    try:
        next(rows)
        for values in rows:
            sid, cid, member, resmia, loss, entropy, queries = values
            int(sid)
            if _IS_MEMBER[member]:
                if cid == "nonmember":
                    return row, "is a member with client_id 'nonmember'"
                int(cid)
            elif cid != "nonmember":
                return row, (f"is a non-member with client_id {cid!r}, "
                             f"not nonmember")
            float(resmia), float(loss), float(entropy), int(queries)
            row += 1
    except (ValueError, csv.Error) as exc:
        return row, f"does not parse: {exc!r}"
    except KeyError as exc:  # only the _IS_MEMBER lookup takes a key
        return row, f"has is_member {exc.args[0]!r}, not 0 or 1"
    finally:
        rows.close()
    raise AssertionError(f"{path}: no data row is refused")
