import csv
import json
import re

import numpy as np
import pytest

from fedaudit.attacks import AttackRecord, write_scores_csv
from fedaudit.metrics import (REPORT_SCHEMA_VERSION, DegenerateScoresError,
                              MetricsReport, accuracy_at_best_threshold, auc,
                              build_report, fpr_at_tpr, per_client_auc,
                              report_and_curves, roc_curve, score_columns,
                              write_csv, write_roc_csv)

HAND_SCORES = [(0.9, True), (0.4, True), (0.6, False), (0.1, False)]


def mann_whitney_auc(scores):
    """O(n^2) pairwise oracle: P(member > non) + 0.5 P(tie)."""
    members = [s for s, m in scores if m]
    non = [s for s, m in scores if not m]
    total = 0.0
    for a in members:
        for b in non:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(members) * len(non))


def best_accuracy_oracle(scores):
    """Threshold-by-threshold sweep; ties go to the lowest threshold."""
    vals = np.array([s for s, _ in scores])
    labels = np.array([m for _, m in scores])
    best_acc, best_thr = -1.0, None
    for thr in np.unique(vals):
        acc = float(np.mean((vals >= thr) == labels))
        if acc > best_acc:
            best_acc, best_thr = acc, float(thr)
    return best_acc, best_thr


def fpr_at_tpr_oracle(curve, target):
    """First vertex reaching the target, interpolated from its predecessor."""
    fpr, tpr = curve.T
    for i in range(len(tpr)):
        if tpr[i] >= target:
            if i == 0 or tpr[i] == tpr[i - 1]:
                return float(fpr[i])
            t = (target - tpr[i - 1]) / (tpr[i] - tpr[i - 1])
            return float(fpr[i - 1] + t * (fpr[i] - fpr[i - 1]))
    return 1.0


def random_scores(rng, n_pos, n_neg, shift=0.0, ties=False):
    pos = rng.random(n_pos) + shift
    neg = rng.random(n_neg)
    if ties:
        pos = np.round(pos, 1)
        neg = np.round(neg, 1)
    return [(float(s), True) for s in pos] + \
           [(float(s), False) for s in neg]


class TestRocCurve:
    def test_perfect_separation_passes_0_1(self):
        scores = [(1.0, True)] * 3 + [(0.0, False)] * 3
        curve = roc_curve(scores)
        assert any(np.allclose(p, (0.0, 1.0)) for p in curve)

    def test_constant_scores_diagonal(self):
        scores = [(0.5, True)] * 4 + [(0.5, False)] * 4
        curve = roc_curve(scores)
        assert curve.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_hand_case_vertices(self):
        curve = roc_curve(HAND_SCORES)
        expected = [[0.0, 0.0], [0.0, 0.5], [0.5, 0.5], [0.5, 1.0],
                    [1.0, 1.0]]
        assert np.allclose(curve, expected)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            curve = roc_curve(random_scores(rng, 10, 15, ties=trial % 2))
            assert curve.shape[1] == 2 and curve.dtype == np.float64
            assert np.all(np.diff(curve, axis=0) >= 0)
            assert curve.min() >= 0.0
            assert curve.max() <= 1.0
            assert np.allclose(curve[0], (0, 0))
            assert np.allclose(curve[-1], (1, 1))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateScoresError):
            roc_curve([(0.5, True), (0.2, True)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    @pytest.mark.parametrize("members_first", [True, False])
    def test_non_finite_scores_rejected(self, bad, members_first):
        # NaNs once made tie groups of their own in input order: AUC 1.0
        # with the members listed first, 0.0 with them listed last
        scores = [(bad, True)] * 2 + [(bad, False)] * 2
        with pytest.raises(DegenerateScoresError,
                           match="^the scores hold 4 non-finite values$"):
            roc_curve(scores if members_first else scores[::-1])

    def test_one_shot_iterable_gives_the_list_curve(self):
        rng = np.random.default_rng(6)
        scores = random_scores(rng, 9, 14, ties=True)
        want = roc_curve(scores)
        assert np.array_equal(roc_curve(iter(scores)), want)
        assert np.array_equal(roc_curve(p for p in scores), want)
        assert np.array_equal(roc_curve([list(p) for p in scores]), want)


class TestAuc:
    def test_perfect_is_one(self):
        assert auc(roc_curve([(1.0, True), (0.0, False)])) == 1.0

    def test_all_tied_is_half(self):
        scores = [(0.3, True)] * 5 + [(0.3, False)] * 5
        assert auc(roc_curve(scores)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_pairwise_oracle_random(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            n_pos = int(rng.integers(2, 101))
            n_neg = int(rng.integers(2, 101))
            scores = random_scores(rng, n_pos, n_neg, ties=trial % 3 == 0)
            got = auc(roc_curve(scores))
            assert abs(got - mann_whitney_auc(scores)) < 1e-9
        # few distinct values, so every threshold is a tie group; the
        # tie-group sweep must also match the per-threshold oracles
        for _ in range(200):
            n_pos = int(rng.integers(1, 41))
            n_neg = int(rng.integers(1, 41))
            levels = int(rng.integers(1, 6))
            scores = [(float(s), True) for s in rng.integers(0, levels, n_pos)]
            scores += [(float(s), False)
                       for s in rng.integers(0, levels, n_neg)]
            curve = roc_curve(scores)
            assert abs(auc(curve) - mann_whitney_auc(scores)) < 1e-9
            assert accuracy_at_best_threshold(scores) == \
                best_accuracy_oracle(scores)
            for k in range(1, n_pos + 1):
                assert fpr_at_tpr(curve, k / n_pos) == \
                    fpr_at_tpr_oracle(curve, k / n_pos)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(2)
        scores = random_scores(rng, 30, 30)
        base = auc(roc_curve(scores))
        for fn in (np.exp, lambda v: 3 * v - 7, lambda v: v ** 3):
            mapped = [(float(fn(s)), m) for s, m in scores]
            assert abs(auc(roc_curve(mapped)) - base) < 1e-9

    def test_negation_complements(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            scores = random_scores(rng, 12, 17)
            a = auc(roc_curve(scores))
            b = auc(roc_curve([(-s, m) for s, m in scores]))
            assert abs(a + b - 1.0) < 1e-9


class TestFprAtTpr:
    def test_perfect_curve(self):
        curve = roc_curve([(1.0, True), (0.0, False)])
        assert fpr_at_tpr(curve, 0.8) == 0.0

    def test_diagonal_chance(self):
        curve = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert fpr_at_tpr(curve, 0.8) == pytest.approx(0.8, abs=1e-12)

    def test_hand_case_interpolation(self):
        curve = roc_curve(HAND_SCORES)
        assert fpr_at_tpr(curve, 0.8) == pytest.approx(0.5, abs=1e-12)

    def test_quality_monotonicity_on_hand_fixture(self):
        base = fpr_at_tpr(roc_curve(HAND_SCORES), 0.8)
        better = HAND_SCORES + [(0.95, True), (0.05, False)]
        assert fpr_at_tpr(roc_curve(better), 0.8) <= base

    def test_invalid_target_rejected(self):
        curve = roc_curve(HAND_SCORES)
        with pytest.raises(ValueError):
            fpr_at_tpr(curve, 0.0)
        with pytest.raises(ValueError):
            fpr_at_tpr(curve, 1.2)


class TestAccuracy:
    def test_perfect_separation(self):
        scores = [(0.9, True)] * 3 + [(0.1, False)] * 3
        acc, thr = accuracy_at_best_threshold(scores)
        assert acc == 1.0
        assert 0.1 < thr <= 0.9

    def test_all_tied_balanced_half(self):
        scores = [(0.5, True)] * 4 + [(0.5, False)] * 4
        acc, _ = accuracy_at_best_threshold(scores)
        assert acc == 0.5

    def test_hand_case(self):
        # best achievable is 0.75, reached at threshold 0.4 and 0.9;
        # ties resolve toward the lower threshold
        acc, thr = accuracy_at_best_threshold(HAND_SCORES)
        assert acc == 0.75
        assert thr == pytest.approx(0.4)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateScoresError):
            accuracy_at_best_threshold([(0.1, False), (0.2, False)])

    def test_one_shot_iterable_gives_the_list_accuracy(self):
        rng = np.random.default_rng(7)
        scores = random_scores(rng, 11, 6, ties=True)
        assert (accuracy_at_best_threshold(p for p in scores)
                == accuracy_at_best_threshold(scores))


def make_records(client_scores, non_scores):
    """client_scores: {client_id: [member resmia scores]}."""
    records = []
    sid = 0
    for cid, scores in client_scores.items():
        for s in scores:
            records.append(AttackRecord(sid, cid, True,
                                        {"resmia": s, "loss": s,
                                         "entropy": s}, 6))
            sid += 1
    for s in non_scores:
        records.append(AttackRecord(10_000 + sid, "nonmember", False,
                                    {"resmia": s, "loss": s,
                                     "entropy": s}, 6))
        sid += 1
    return records


class TestPerClientAuc:
    def test_identical_distributions_identical_aucs(self):
        scores = [0.8, 0.6, 0.4]
        records = make_records({0: scores, 1: scores, 2: scores},
                               [0.5, 0.3])
        result = per_client_auc(records)
        assert len(result) == 3
        assert len(set(result.values())) == 1

    def test_single_client_equals_global(self):
        records = make_records({0: [0.9, 0.7]}, [0.5, 0.2])
        result = per_client_auc(records)
        all_scores = [(r.scores["resmia"], r.is_member) for r in records]
        assert result[0] == pytest.approx(auc(roc_curve(all_scores)))

    def test_shifted_client_ranks_highest(self):
        rng = np.random.default_rng(4)
        base = {cid: list(rng.random(8)) for cid in range(5)}
        base[3] = [s + 2.0 for s in base[3]]
        records = make_records(base, list(rng.random(20)))
        result = per_client_auc(records)
        assert max(result, key=result.get) == 3
        assert all(result[3] > v for c, v in result.items() if c != 3)

    def test_no_nonmembers_rejected(self):
        records = make_records({0: [0.5]}, [])
        with pytest.raises(DegenerateScoresError):
            per_client_auc(records)

    @pytest.mark.parametrize("records, message", [
        ([], "no non-member records"),
        (make_records({}, [0.5, 0.2]), "no member records"),
    ], ids=["empty", "no_members"])
    def test_one_class_named(self, records, message):
        with pytest.raises(DegenerateScoresError, match=message):
            per_client_auc(records)


def reference_report(records, erosion_steps):
    """build_report assembled from the public per-function calls, each
    sorting its own pair list."""
    attacks = {}
    for name in sorted(records[0].scores):
        scores = [(r.scores[name], r.is_member) for r in records]
        curve = roc_curve(scores)
        acc, thr = accuracy_at_best_threshold(scores)
        attacks[name] = {"auc": auc(curve), "accuracy": acc,
                         "fpr_at_tpr80": fpr_at_tpr(curve, 0.8),
                         "threshold": thr}
    non_member = [(r.scores["resmia"], False) for r in records
                  if not r.is_member]
    by_client = {}
    for r in records:
        if r.is_member:
            by_client.setdefault(r.client_id, []).append(
                (r.scores["resmia"], True))
    clients = {cid: auc(roc_curve(member + non_member))
               for cid, member in sorted(by_client.items())}
    return MetricsReport(
        attacks=attacks, per_client=clients,
        client_auc_std=float(np.std(list(clients.values()))),
        query_counts={"resmia": erosion_steps + 1, "loss": 1,
                      "entropy": 1})


def tied_records(seed):
    """Shuffled records whose scores take a few values, +0.0 and -0.0
    among them; client ids come out of order and client 5 has one
    member."""
    rng = np.random.default_rng(seed)
    cids = [5] + [int(c) for c in rng.choice([7, 2, 9, 0], 60)]
    n = len(cids) + 45
    levels = np.array([-0.5, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
    values = levels[rng.integers(0, len(levels), (3, n))]
    values[0, :len(cids)] += 0.25 * rng.integers(0, 2, len(cids))
    records = [AttackRecord(i, cids[i] if i < len(cids) else "nonmember",
                            i < len(cids),
                            {name: float(v[i]) for name, v in
                             zip(("resmia", "loss", "entropy"), values)}, 4)
               for i in range(n)]
    return [records[i] for i in rng.permutation(n)]


class TestSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_build_report_equals_the_per_function_reference(self, seed):
        records = tied_records(seed)
        report = build_report(records, erosion_steps=3)
        want = reference_report(records, 3)
        assert report == want
        assert report.to_json() == want.to_json()  # -0.0 thresholds too
        assert per_client_auc(records) == want.per_client
        assert list(report.per_client) == [0, 2, 5, 7, 9]

    @pytest.mark.parametrize("seed", range(6))
    def test_build_report_matches_the_oracles(self, seed):
        records = tied_records(seed)
        report = build_report(records, erosion_steps=3)
        for name, row in report.attacks.items():
            scores = [(r.scores[name], r.is_member) for r in records]
            assert row["auc"] == pytest.approx(mann_whitney_auc(scores))
            assert (row["accuracy"], row["threshold"]) == pytest.approx(
                best_accuracy_oracle(scores))
        non_member = [(r.scores["resmia"], False) for r in records
                      if not r.is_member]
        for cid, value in report.per_client.items():
            member = [(r.scores["resmia"], True) for r in records
                      if r.is_member and r.client_id == cid]
            assert value == pytest.approx(
                mann_whitney_auc(member + non_member))

    @pytest.mark.parametrize("seed", range(3))
    def test_curves_are_the_roc_curves_of_the_report(self, seed):
        records = tied_records(seed)
        report, curves = report_and_curves(score_columns(records), 3)
        assert report == build_report(records, 3)
        assert sorted(curves) == sorted(report.attacks)
        for name, curve in curves.items():
            want = roc_curve((r.scores[name], r.is_member) for r in records)
            assert np.array_equal(curve, want)
            assert auc(curve) == report.attacks[name]["auc"]

    @pytest.mark.parametrize("client_id, is_member, fault", [
        ("nonmember", True,
         "is a member with client_id 'nonmember', not an int"),
        ("0", True, "is a member with client_id '0', not an int"),
        (3, False, "is a non-member with client_id 3, not 'nonmember'"),
    ], ids=["member_nonmember", "member_text", "non_member_int"])
    @pytest.mark.parametrize("call", [
        lambda records: build_report(records, 3), per_client_auc,
        score_columns,
    ], ids=["build_report", "per_client_auc", "score_columns"])
    def test_a_client_id_that_does_not_fit_is_member_is_named(
            self, call, client_id, is_member, fault):
        records = tied_records(0)
        bad = records[40]
        bad.client_id, bad.is_member = client_id, is_member
        with pytest.raises(ValueError, match=(
                f"^record 40 \\(sample_id {bad.sample_id}\\) "
                f"{re.escape(fault)}$")):
            call(records)

    @pytest.mark.parametrize("name", ["resmia", "loss", "entropy"])
    def test_non_finite_scores_named_by_attack(self, name):
        records = tied_records(0)
        for r in records[:3]:
            r.scores[name] = float("nan")
        records[3].scores[name] = float("inf")
        with pytest.raises(DegenerateScoresError,
                           match=f"^{name} scores hold 4 non-finite values$"):
            build_report(records, 3)

    def test_records_have_mixed_ties(self):
        """Several tie values hold both members and non-members, so the
        sweep tests see counts inside tie groups."""
        records = tied_records(0)
        for name in ("resmia", "loss", "entropy"):
            by_value = {}
            for r in records:
                by_value.setdefault(r.scores[name], set()).add(r.is_member)
            assert sum(len(kinds) == 2 for kinds in by_value.values()) >= 4


class TestReport:
    def test_build_and_json_round_trip(self):
        records = make_records({0: [0.9, 0.8], 1: [0.7, 0.85]},
                               [0.3, 0.4, 0.2, 0.5])
        report = build_report(records, erosion_steps=5,
                              timing={"single_forward_ms": 1.0,
                                      "resmia_probe_ms": 6.0,
                                      "ratio": 6.0},
                              metadata={"seed": 1})
        assert set(report.attacks) == {"resmia", "loss", "entropy"}
        for row in report.attacks.values():
            assert 0.0 <= row["auc"] <= 1.0
        assert report.query_counts == {"resmia": 6, "loss": 1,
                                       "entropy": 1}
        assert set(report.per_client) == {0, 1}
        loaded = MetricsReport.from_json(report.to_json())
        assert loaded == report

    @staticmethod
    def payload():
        records = make_records({0: [0.9, 0.8], 1: [0.7, 0.85]},
                               [0.3, 0.4, 0.2, 0.5])
        return json.loads(build_report(records, erosion_steps=5).to_json())

    def test_to_json_writes_the_schema_version(self):
        assert self.payload()["schema_version"] == REPORT_SCHEMA_VERSION

    def test_to_json_refuses_a_non_finite_number(self):
        report = MetricsReport.from_json(json.dumps(self.payload()))
        report.client_auc_std = float("nan")
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json()

    @pytest.mark.parametrize("version", [REPORT_SCHEMA_VERSION + 1, None,
                                         "1"])
    def test_from_json_refuses_another_version(self, version):
        payload = self.payload()
        payload["schema_version"] = version
        with pytest.raises(ValueError) as info:
            MetricsReport.from_json(json.dumps(payload))
        assert str(info.value) == (f"has schema_version {version!r}, "
                                   f"not {REPORT_SCHEMA_VERSION}")

    def test_from_json_names_each_missing_key(self):
        keys = list(self.payload())
        assert len(keys) == 7
        for key in keys:
            payload = self.payload()
            del payload[key]
            with pytest.raises(ValueError) as info:
                MetricsReport.from_json(json.dumps(payload))
            assert str(info.value) == f"has no key {key!r}"

    def test_from_json_names_the_first_missing_key(self):
        payload = self.payload()
        for key in ("metadata", "attacks", "timing"):
            del payload[key]
        with pytest.raises(ValueError, match="^has no key 'attacks'$"):
            MetricsReport.from_json(json.dumps(payload))

    @pytest.mark.parametrize("key", ["attacks", "per_client_auc",
                                     "query_counts", "timing", "metadata"])
    def test_from_json_names_a_mapping_of_another_type(self, key):
        payload = self.payload()
        payload[key] = list(payload[key].values())
        with pytest.raises(ValueError) as info:
            MetricsReport.from_json(json.dumps(payload))
        assert str(info.value) == (f"has {key} of type list, "
                                   f"not a JSON object")

    @pytest.mark.parametrize("timing", [
        {"ratio": 6.0},
        {"single_forward_ms": 1.0, "resmia_probe_ms": 6.0, "ratio": True},
    ], ids=["key_missing", "bool_value"])
    def test_from_json_refuses_a_timing_of_other_numbers(self, timing):
        payload = self.payload()
        payload["timing"] = timing
        with pytest.raises(ValueError) as info:
            MetricsReport.from_json(json.dumps(payload))
        assert str(info.value) == (
            f"has timing {timing!r}, not {{}} or the numbers "
            f"single_forward_ms, resmia_probe_ms, ratio")

    def test_from_json_names_a_client_id_that_is_not_an_int(self):
        payload = self.payload()
        payload["per_client_auc"]["first"] = 0.5
        with pytest.raises(ValueError, match="^has per_client_auc invalid "
                                             "literal for int"):
            MetricsReport.from_json(json.dumps(payload))

    @pytest.mark.parametrize("text, message", [
        ("[]", "is not a JSON object"),
        ("7", "is not a JSON object"),
        ("", "Expecting value: line 1 column 1"),
        ('{"schema_version": 1} x', "Extra data: line 1 column 23"),
    ], ids=["list", "number", "empty", "text_appended"])
    def test_from_json_refuses_what_is_not_a_json_object(self, text,
                                                         message):
        with pytest.raises(ValueError) as info:
            MetricsReport.from_json(text)
        assert str(info.value).startswith(message)

    def test_per_client_map_covers_all_clients(self):
        records = make_records({c: [0.6, 0.7] for c in range(7)},
                               [0.5] * 5)
        report = build_report(records, erosion_steps=3)
        assert sorted(report.per_client) == list(range(7))
        assert report.client_auc_std >= 0.0


def reference_write_csv(path, header, rows, metadata=None):
    """The results-CSV writer as it was, frozen: the preamble, then
    csv.writer over the cells with every float formatted by repr."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {key}={metadata[key]}\n"
                         for key in sorted(metadata or {})))
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(c) if isinstance(c, float) else c
                          for c in row] for row in rows)


ODD_FLOATS = [-0.0, 1e-05, 5e-324, float("nan"), 0.1, -1.7976931348623157e308]


class TestCsvFormat:
    META = {"seed": 3, "config_hash": "abc"}

    def both(self, tmp_path, header, rows, write):
        """Bytes of write(path) and of the frozen writer on rows."""
        write(tmp_path / "new.csv")
        reference_write_csv(tmp_path / "ref.csv", header, rows, self.META)
        return ((tmp_path / "new.csv").read_bytes(),
                (tmp_path / "ref.csv").read_bytes())

    def test_training_log_bytes(self, tmp_path):
        columns = ["round", "train_acc", "test_acc", "mean_client_loss"]
        log = [{"round": i + 1, "train_acc": a, "test_acc": b,
                "mean_client_loss": c}
               for i, (a, b, c) in enumerate(zip(
                   ODD_FLOATS, ODD_FLOATS[::-1], [2.302585092994046] * 6))]
        rows = [[row[k] for k in columns] for row in log]
        new, ref = self.both(tmp_path, columns, rows, lambda p: write_csv(
            p, columns, ([row[k] for k in columns] for row in log),
            self.META))
        assert new == ref
        assert b"nan" in new and b"5e-324" in new

    def test_scores_bytes(self, tmp_path):
        records = [AttackRecord(i, "nonmember" if i % 2 else i % 3,
                                i % 2 == 0,
                                {"resmia": v, "loss": ODD_FLOATS[i - 1],
                                 "entropy": -v}, 4)
                   for i, v in enumerate(ODD_FLOATS)]
        rows = [[r.sample_id, r.client_id, int(r.is_member),
                 r.scores["resmia"], r.scores["loss"], r.scores["entropy"],
                 r.queries_resmia] for r in records]
        new, ref = self.both(
            tmp_path, ["sample_id", "client_id", "is_member",
                       "score_resmia", "score_loss", "score_entropy",
                       "queries_resmia"], rows,
            lambda p: write_scores_csv(p, records, self.META))
        assert new == ref
        for text in (b"nonmember", b"-0.0", b"1e-05", b"5e-324"):
            assert text in new

    def test_ablation_bytes(self, tmp_path):
        rows = [("nearest", 0.8125), ("bilinear", 1 / 3)]
        header = ["upsample_mode", "auc_resmia"]
        new, ref = self.both(tmp_path, header, rows, lambda p: write_csv(
            p, header, rows, self.META))
        assert new == ref

    def test_roc_bytes_across_blocks(self, tmp_path):
        rng = np.random.default_rng(8)
        curves = {name: roc_curve(random_scores(rng, 1500, 1700 + i))
                  for i, name in enumerate(["resmia", "loss", "entropy"])}
        rows = [[name, float(fpr), float(tpr)] for name in sorted(curves)
                for fpr, tpr in curves[name]]
        assert len(rows) > 4 * 2048  # several blocks
        new, ref = self.both(tmp_path, ["attack", "fpr", "tpr"], rows,
                             lambda p: write_roc_csv(p, curves, self.META))
        assert new == ref

    @pytest.mark.parametrize("cell", [",", '"', "\n", "\r", "a,b",
                                      'say "hi"', "two\r\nlines"])
    def test_refuses_a_cell_that_needs_quoting(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        rows = [("ok", 1.0)] * 3000 + [(cell, 2.0)]
        with pytest.raises(ValueError, match="would need quoting") as info:
            write_csv(path, ["name", "value"], rows)
        assert str(path) in str(info.value)
        # the 2048-row block before the bad one is not left on disk
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("row", [(1,), (1, 2, 3)],
                             ids=["short", "long"])
    def test_refuses_a_row_of_another_length(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="header's 2 cells") as info:
            write_csv(path, ["a", "b"], [(0, 1), row])
        assert str(path) in str(info.value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [("a,b", 2.0), (1,)],
                             ids=["cell", "row"])
    def test_refusal_keeps_an_earlier_file(self, tmp_path, bad):
        path = tmp_path / "kept.csv"
        write_csv(path, ["name", "value"], [("ok", 1.0)], self.META)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=str(path)):
            write_csv(path, ["name", "value"], [("ok", 3.0)] * 3000 + [bad])
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_full_disk_keeps_an_earlier_file(self, tmp_path, full_disk):
        path = tmp_path / "kept.csv"
        write_csv(path, ["name", "value"], [("ok", 1.0)], self.META)
        before = path.read_bytes()
        full_disk("kept.csv")
        with pytest.raises(OSError, match="No space left"):
            write_csv(path, ["name", "value"], [("ok", 3.0)] * 3000)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_a_refused_rename_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "taken.csv"
        path.mkdir()
        with pytest.raises(OSError):
            write_csv(path, ["name", "value"], [("ok", 1.0)])
        assert path.is_dir()
        assert list(tmp_path.iterdir()) == [path]


def reference_write_roc_csv(path, curves_by_attack, metadata=None):
    """write_roc_csv as it was, frozen: every cell of every curve formatted
    on its own, row by row."""
    write_csv(path, ["attack", "fpr", "tpr"],
              ((name, fpr, tpr) for name in sorted(curves_by_attack)
               for fpr, tpr in zip(*curves_by_attack[name].T.tolist())),
              metadata)


def large_curves(seed):
    """Curves of 20 000 distinct seeded scores: 5 clients x 2 000 members
    and 10 000 non-members, the size of a CIFAR-10 test-split audit."""
    rng = np.random.default_rng(seed)
    member = np.arange(20_000) < 10_000
    z = rng.standard_normal((3, len(member))) + np.outer([0.8, 0.6, 0.5],
                                                         member)
    columns = {"resmia": 0.05 * z[0],
               "loss": 1.0 / (1.0 + np.exp(-1.5 - z[1])),
               "entropy": -np.log(10.0) / (1.0 + np.exp(1.0 + z[2]))}
    return {name: roc_curve(zip(vals.tolist(), member.tolist()))
            for name, vals in columns.items()}


def uneven_curves(seed):
    """Curves of other lengths and class sizes, so the attacks share
    only some of their rates."""
    rng = np.random.default_rng(seed)
    return {name: roc_curve(random_scores(rng, n_pos, n_neg, shift))
            for name, n_pos, n_neg, shift in [("resmia", 7, 13, 0.3),
                                              ("loss", 300, 50, 0.1),
                                              ("entropy", 1000, 999, 0.0)]}


def odd_curves():
    """Curves holding -0.0 beside 0.0 and NaNs of other payloads."""
    nan = float("nan")
    payload_nan = np.array([0x7FF8000000000001, 0xFFF8000000000000],
                           np.uint64).view(np.float64)
    return {"resmia": np.array([[-0.0, 0.0], [0.0, -0.0], [nan, 0.5],
                                [payload_nan[0], payload_nan[1]],
                                [1.0, 1.0]]),
            "loss": np.array([[0.0, 0.0], [-0.0, nan], [1e-05, 5e-324],
                              [1.0, 1.0]])}


class TestRocCsv:
    @pytest.mark.parametrize("curves", [
        pytest.param(lambda: large_curves(8), id="large"),
        pytest.param(lambda: report_and_curves(
            score_columns(tied_records(3)), 3)[1], id="ties"),
        pytest.param(lambda: uneven_curves(5), id="uneven"),
        pytest.param(odd_curves, id="zeros_and_nans"),
        pytest.param(dict, id="no_curves"),
    ])
    def test_bytes_equal_the_per_row_reference(self, tmp_path, curves):
        curves = curves()
        meta = {"seed": 3, "config_hash": "abc"}
        write_roc_csv(tmp_path / "new.csv", curves, meta)
        reference_write_roc_csv(tmp_path / "ref.csv", curves, meta)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.count(b"\n") == 3 + sum(len(c) for c in curves.values())

    def test_writes_all_attacks(self, tmp_path):
        curve = roc_curve(HAND_SCORES)
        path = tmp_path / "roc.csv"
        write_roc_csv(path, {"resmia": curve, "loss": curve},
                      metadata={"seed": 0})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "attack,fpr,tpr"
        attacks_seen = {line.split(",")[0] for line in lines[2:]}
        assert attacks_seen == {"resmia", "loss"}
