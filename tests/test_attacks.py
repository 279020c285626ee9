import csv
import re

import numpy as np
import pytest

from fedaudit import attacks, metrics, nn
from fedaudit.attacks import (AttackRecord, ConfidenceTrace, EvalSample,
                              confidence_trace, entropy_attack_score,
                              evaluate_attacks, loss_attack_score,
                              negated_entropy, read_scores_csv,
                              resmia_score, resmia_score_closed,
                              write_scores_csv)
from fedaudit.tensors import ErosionConfig


class StubModel:
    """Black-box stand-in: any callable image -> probability vector."""

    def __init__(self, fn):
        self.fn = fn
        self.query_count = 0

    def query(self, img):
        self.query_count += 1
        return np.asarray(self.fn(img), dtype=np.float64)

    def query_batch(self, images):
        return np.stack([self.query(img) for img in images])


def constant_model(probs):
    return StubModel(lambda img: probs)


def mean_sensitive_model(classes=3):
    """Confidence depends smoothly on the image mean, so erosion moves it."""

    def fn(img):
        logits = np.array([float(img.mean()) * (i + 1)
                           for i in range(classes)])
        e = np.exp(logits - logits.max())
        return e / e.sum()

    return StubModel(fn)


def trace_from(probs):
    p = np.asarray(probs, dtype=np.float64)
    return ConfidenceTrace(target_probs=p,
                           initial_probs=np.array([p[0], 1 - p[0]]))


def rand_img(seed, shape=(1, 8, 8)):
    return np.random.default_rng(seed).random(shape, dtype=np.float32)


class TestConfidenceTrace:
    def test_constant_model_flat_trace(self):
        model = constant_model([0.5, 0.3, 0.2])
        trace = confidence_trace(model, rand_img(0), ErosionConfig(3))
        assert np.allclose(trace.target_probs, 0.5)
        assert len(trace.target_probs) == 4

    def test_exactly_k_plus_one_queries(self):
        model = constant_model([0.6, 0.4])
        confidence_trace(model, rand_img(1), ErosionConfig(3))
        assert model.query_count == 4

    def test_argmax_tie_breaks_low_index(self):
        # classes 0 and 1 tie on the original; the eroded image parts them
        answers = iter([[0.4, 0.4, 0.2], [0.1, 0.7, 0.2]])
        model = StubModel(lambda img: next(answers))
        trace = confidence_trace(model, rand_img(3), ErosionConfig(1))
        assert list(trace.target_probs) == [0.4, 0.1]

    def test_initial_entry_matches_top_confidence(self):
        model = mean_sensitive_model()
        trace = confidence_trace(model, rand_img(4), ErosionConfig(3))
        assert trace.target_probs[0] == trace.initial_probs.max()

    def test_real_model_counter_budget(self):
        arch = nn.default_architecture(input_shape=(3, 32, 32),
                                       num_classes=4)
        model = nn.Model(arch=arch, params=nn.init_params(arch, 0))
        confidence_trace(model, rand_img(5, (3, 32, 32)), ErosionConfig(5))
        assert model.query_count == 6


class TestResmiaScore:
    def test_hand_case(self):
        assert resmia_score(trace_from([0.9, 0.7, 0.5])) == \
            pytest.approx(0.2, abs=1e-12)

    def test_one_entry_trace_rejected(self):
        # ErosionConfig refuses 0 steps, but a trace can be built by hand
        trace = trace_from([0.6])
        for score in (resmia_score, resmia_score_closed):
            with pytest.raises(ValueError, match="at least one erosion step"):
                score(trace)

    def test_constant_trace_zero(self):
        assert resmia_score(trace_from([0.4, 0.4, 0.4])) == 0.0

    def test_negative_score_allowed(self):
        assert resmia_score(trace_from([0.3, 0.5])) == \
            pytest.approx(-0.2, abs=1e-12)

    def test_telescoping_identity_1000_random_traces(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 9))
            trace = trace_from(rng.random(k + 1))
            worst = max(worst, abs(resmia_score(trace)
                                   - resmia_score_closed(trace)))
        assert worst < 1e-12

    def test_steeper_decay_scores_higher(self):
        shallow = resmia_score(trace_from([0.9, 0.85, 0.8]))
        steep = resmia_score(trace_from([0.9, 0.5, 0.1]))
        assert steep > shallow


class TestBaselines:
    def test_loss_uniform_ten_classes(self):
        model = constant_model([0.1] * 10)
        assert loss_attack_score(model, rand_img(0)) == \
            pytest.approx(0.1, abs=1e-12)
        assert model.query_count == 1

    def test_loss_one_hot_like(self):
        probs = [0.97] + [0.03 / 9] * 9
        model = constant_model(probs)
        assert loss_attack_score(model, rand_img(0)) == \
            pytest.approx(0.97, abs=1e-12)

    def test_loss_orientation(self):
        low = loss_attack_score(constant_model([0.5, 0.5]), rand_img(0))
        high = loss_attack_score(constant_model([0.9, 0.1]), rand_img(0))
        assert high > low

    def test_entropy_uniform(self):
        model = constant_model([0.1] * 10)
        score = entropy_attack_score(model, rand_img(0))
        assert score == pytest.approx(-np.log(10), abs=1e-6)
        assert model.query_count == 1

    def test_entropy_one_hot_zero(self):
        model = constant_model([1.0, 0.0, 0.0])
        assert entropy_attack_score(model, rand_img(0)) == 0.0

    def test_entropy_half_half(self):
        model = constant_model([0.5, 0.5, 0.0, 0.0])
        assert entropy_attack_score(model, rand_img(0)) == \
            pytest.approx(-np.log(2), abs=1e-6)

    def test_entropy_orientation(self):
        concentrated = negated_entropy([0.9, 0.05, 0.05])
        spread = negated_entropy([0.4, 0.3, 0.3])
        assert concentrated > spread


class TestEvaluateAttacks:
    def make_samples(self, n_members=6, n_non=6, clients=3):
        samples = []
        for i in range(n_members):
            samples.append(EvalSample(i, i % clients, True,
                                      rand_img(i) * 0.5 + 0.5))
        for i in range(n_non):
            samples.append(EvalSample(1000 + i, "nonmember", False,
                                      rand_img(100 + i) * 0.5))
        return samples

    def test_record_counts_and_fields(self):
        model = mean_sensitive_model()
        records = evaluate_attacks(model, self.make_samples(),
                                   ErosionConfig(3))
        assert len(records) == 12
        assert sum(r.is_member for r in records) == 6
        for r in records:
            assert set(r.scores) == {"resmia", "loss", "entropy"}
            assert r.queries_resmia == 4
        member_clients = {r.client_id for r in records if r.is_member}
        assert member_clients == {0, 1, 2}

    def test_deterministic_rerun(self):
        a = evaluate_attacks(mean_sensitive_model(), self.make_samples(),
                             ErosionConfig(3))
        b = evaluate_attacks(mean_sensitive_model(), self.make_samples(),
                             ErosionConfig(3))
        assert [r.scores for r in a] == [r.scores for r in b]

    def test_single_class_rejected(self):
        members_only = [s for s in self.make_samples() if s.is_member]
        with pytest.raises(ValueError):
            evaluate_attacks(mean_sensitive_model(), members_only,
                             ErosionConfig(3))

    @pytest.mark.parametrize("mode", ["nearest", "bilinear"])
    @pytest.mark.parametrize("steps", [1, 3, 5])
    def test_batches_score_as_per_sample_traces(self, steps, mode):
        # 19 samples leave a partial last batch at 16, 8 and 5 per batch
        arch = nn.default_architecture()
        model = nn.Model(arch=arch, params=nn.init_params(arch, 3))
        samples = [EvalSample(i, i % 3 if i < 10 else "nonmember", i < 10,
                              rand_img(200 + i, (3, 32, 32)))
                   for i in range(19)]
        cfg = ErosionConfig(steps, upsample_mode=mode)
        records = evaluate_attacks(model, samples, cfg)
        assert model.query_count == 19 * (steps + 1)
        for s, r in zip(samples, records):
            trace = confidence_trace(model, s.image, cfg)
            want = {"resmia": resmia_score(trace),
                    "loss": float(trace.initial_probs.max()),
                    "entropy": negated_entropy(trace.initial_probs)}
            assert r.sample_id == s.sample_id
            assert repr(r.scores) == repr(want)
            assert r.queries_resmia == steps + 1

    def test_miscounted_batch_raises(self):
        class OneCountPerBatch(StubModel):
            def query_batch(self, images):
                probs = super().query_batch(images)
                self.query_count -= len(images) - 1
                return probs

        with pytest.raises(RuntimeError, match="cost 48 queries, the "
                                               "model counted 2"):
            evaluate_attacks(OneCountPerBatch(mean_sensitive_model().fn),
                             self.make_samples(), ErosionConfig(3))

    def test_shared_x0_matches_standalone_baselines(self):
        samples = self.make_samples(2, 2)
        records = evaluate_attacks(mean_sensitive_model(), samples,
                                   ErosionConfig(3))
        by_id = {r.sample_id: r for r in records}
        for s in samples:
            assert by_id[s.sample_id].scores["loss"] == pytest.approx(
                loss_attack_score(mean_sensitive_model(), s.image),
                abs=1e-12)
            assert by_id[s.sample_id].scores["entropy"] == pytest.approx(
                entropy_attack_score(mean_sensitive_model(), s.image),
                abs=1e-12)


class TestScoresCsv:
    def make_records(self):
        return [
            AttackRecord(1, 0, True,
                         {"resmia": 0.125, "loss": 0.9, "entropy": -0.3},
                         6),
            AttackRecord(2000, "nonmember", False,
                         {"resmia": 0.01, "loss": 0.4, "entropy": -1.7},
                         6),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, self.make_records(),
                         metadata={"seed": 3, "config_hash": "abc"})
        records, meta = read_scores_csv(path)
        assert meta == {"seed": "3", "config_hash": "abc"}
        assert records[0].sample_id == 1
        assert records[0].client_id == 0
        assert records[0].is_member
        assert records[0].scores["resmia"] == 0.125
        assert records[1].client_id == "nonmember"
        assert not records[1].is_member

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores_csv(p1, self.make_records(), metadata={"seed": 1})
        write_scores_csv(p2, self.make_records(), metadata={"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_columns(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, self.make_records())
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(attacks.SCORES_CSV_COLUMNS)

    def test_short_row_names_path_and_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, self.make_records(), metadata={"seed": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[:raw.rindex(b",")])
        with pytest.raises(attacks.ScoresCsvError,
                           match=f"^{re.escape(str(path))}: data row 2 "):
            read_scores_csv(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line + ",999", "too many values to unpack"),
        (lambda line: line.rsplit(",", 1)[0], "not enough values to unpack"),
    ], ids=["extra_field", "missing_field"])
    def test_row_of_another_width_names_path_and_row(self, tmp_path, edit,
                                                     message):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, self.make_records(), metadata={"seed": 1})
        lines = path.read_text().splitlines()
        lines[3] = edit(lines[3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(attacks.ScoresCsvError,
                           match=f"^{re.escape(str(path))}: data row 2 "
                                 f"does not parse: .*{message}"):
            read_scores_csv(path)

    @pytest.mark.parametrize("cell", ["2", " 1", "01", "-0", "True", ""])
    def test_is_member_other_than_0_or_1_names_path_and_row(self, tmp_path,
                                                            cell):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, self.make_records(), metadata={"seed": 1})
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[attacks.SCORES_CSV_COLUMNS.index("is_member")] = cell
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(attacks.ScoresCsvError,
                           match=f"^{re.escape(str(path))}: data row 2 has "
                                 f"is_member {re.escape(repr(cell))}, "
                                 f"not 0 or 1$"):
            read_scores_csv(path)

    def test_the_seen_extra_field_row_is_refused(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(",".join(attacks.SCORES_CSV_COLUMNS) + "\n"
                        "1,0,1,0.5,0.9,-0.1,4\n"
                        "1000000,nonmember,0,0.0,0.4,-0.5,4,999\n")
        with pytest.raises(attacks.ScoresCsvError, match="data row 2 "):
            read_scores_csv(path)

    @pytest.mark.parametrize("header", [
        "sample_id,client_id,is_member,score_resmia,score_loss,"
        "score_entropy",
        "sample_id,client_id,is_member,score_loss,score_resmia,"
        "score_entropy,queries_resmia",
        "",
    ], ids=["short", "swapped", "blank"])
    def test_another_header_fails_at_row_1(self, tmp_path, header):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, self.make_records(), metadata={"seed": 1})
        lines = path.read_text().splitlines()
        lines[1] = header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(attacks.ScoresCsvError,
                           match=f"^{re.escape(str(path))}: data row 1 "
                                 f"does not parse: .*header"):
            read_scores_csv(path)

    def test_scores_csv_error_is_value_error(self):
        assert issubclass(attacks.ScoresCsvError, ValueError)

    def test_damaged_files_load_or_raise_scores_csv_error(self, tmp_path):
        """Every cut and 200 one-byte flips of an 8-record file each load
        or raise ScoresCsvError, nothing else."""
        path = tmp_path / "scores.csv"
        records = [AttackRecord(7 * i, "nonmember" if i % 2 else i % 5,
                                i % 2 == 0,
                                {"resmia": 0.1 * i, "loss": 0.9 - 0.05 * i,
                                 "entropy": -0.3 * i}, 4)
                   for i in range(8)]
        write_scores_csv(path, records,
                         metadata={"seed": 0, "config_hash": "abc"})
        raw = path.read_bytes()
        rng = np.random.default_rng(11)
        flips = zip(rng.integers(0, len(raw), 200), rng.integers(1, 256, 200))
        damaged = [raw[:cut] for cut in range(len(raw))]
        for pos, flip in flips:
            flipped = bytearray(raw)
            flipped[pos] ^= flip
            damaged.append(bytes(flipped))
        for content in damaged:
            path.write_bytes(content)
            try:
                read_scores_csv(path)
            except attacks.ScoresCsvError:
                pass


def reference_read_scores_csv(path):
    """read_scores_csv as it was before it parsed columns, frozen: one
    AttackRecord per row, every cell parsed on its own."""
    records = []
    rows = metrics.read_csv(path, attacks.SCORES_CSV_COLUMNS)
    try:
        metadata = next(rows)
        for sid, cid, member, resmia, loss, entropy, queries in rows:
            records.append(AttackRecord(
                int(sid), cid if cid == "nonmember" else int(cid),
                {"0": False, "1": True}[member],
                {"resmia": float(resmia), "loss": float(loss),
                 "entropy": float(entropy)},
                int(queries)))
    except (ValueError, csv.Error) as exc:
        raise attacks.ScoresCsvError(f"{path}: data row {len(records) + 1} "
                                     f"does not parse: {exc!r}") from exc
    except KeyError as exc:
        raise attacks.ScoresCsvError(f"{path}: data row {len(records) + 1} "
                                     f"has is_member {exc.args[0]!r}, not 0 "
                                     f"or 1") from exc
    finally:
        rows.close()
    return records, metadata


def large_records(seed, nonmembers=10_000, per_client=2_000, clients=5):
    """Seeded records shaped like a full CIFAR-10 test-split audit, the
    members first, every score distinct."""
    rng = np.random.default_rng(seed)
    n_mem = clients * per_client
    values = rng.standard_normal((3, n_mem + nonmembers))
    return [AttackRecord(i if i < n_mem else 1_000_000 + i,
                         i // per_client if i < n_mem else "nonmember",
                         i < n_mem,
                         {"resmia": float(values[0, i]),
                          "loss": float(values[1, i]),
                          "entropy": float(values[2, i])}, 4)
            for i in range(n_mem + nonmembers)]


def tied_scores_records(seed, n=300):
    """Shuffled records whose scores take a few values, -0.0 and 0.0
    among them, with client ids out of order."""
    rng = np.random.default_rng(seed)
    levels = np.array([-0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
    values = levels[rng.integers(0, len(levels), (3, n))]
    cids = rng.choice([7, 2, 9, 0], n // 2)
    records = [AttackRecord(i, int(cids[i]) if i < n // 2 else "nonmember",
                            i < n // 2,
                            {name: float(v[i]) for name, v in
                             zip(attacks.ATTACK_NAMES, values)}, 4)
               for i in range(n)]
    return [records[i] for i in rng.permutation(n)]


# scores that repr writes in exponent form, signed zeros and ties
ODD_SCORES = [-0.0, 0.0, 1e-05, 5e-324, -2.5e-10, 1e+300, 0.5, 0.5]


def odd_records(n):
    """n records whose scores are ODD_SCORES in turn; the first one or
    two are members of clients 7 and 2, and at least one is not if n > 1.
    """
    members = 1 if n == 1 else min(2, n - 1)
    return [AttackRecord(3 * i, (7, 2)[i] if i < members else "nonmember",
                         i < members,
                         {name: ODD_SCORES[(i + k) % len(ODD_SCORES)]
                          for k, name in enumerate(attacks.ATTACK_NAMES)},
                         6)
            for i in range(n)]


def fields(records):
    """Each record's fields by repr, so -0.0 differs from 0.0, True
    from 1 and a numpy scalar from a Python number."""
    return [repr((r.sample_id, r.client_id, r.is_member, r.scores,
                  r.queries_resmia)) for r in records]


def float_bits(value):
    """value with every float replaced by its hex form, recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {repr(k): float_bits(v) for k, v in value.items()}
    return value


class TestColumnarRead:
    META = {"seed": 3, "config_hash": "abc"}

    def both(self, tmp_path, records):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, records, self.META)
        return read_scores_csv(path), reference_read_scores_csv(path)

    @pytest.mark.parametrize("records", [
        pytest.param(lambda: large_records(0), id="large_0"),
        pytest.param(lambda: large_records(1), id="large_1"),
        pytest.param(lambda: tied_scores_records(4), id="ties"),
        pytest.param(lambda: odd_records(len(ODD_SCORES)), id="odd_floats"),
        pytest.param(lambda: odd_records(1), id="one_row"),
        pytest.param(lambda: odd_records(2), id="two_rows"),
    ])
    def test_records_equal_the_per_row_reference(self, tmp_path, records):
        records = records()
        (table, meta), (want, want_meta) = self.both(tmp_path, records)
        assert meta == want_meta == {"seed": "3", "config_hash": "abc"}
        assert len(table) == len(want) == len(records)
        assert fields(table) == fields(want) == fields(records)
        assert fields([table[-1], table[0]]) == fields([want[-1], want[0]])

    @pytest.mark.parametrize("row", [1, 2500, 5000])
    @pytest.mark.parametrize("column, cell", [
        ("sample_id", "x"), ("sample_id", "1.0"), ("client_id", "x"),
        ("is_member", "2"), ("score_resmia", "abc"), ("score_loss", ""),
        ("score_entropy", "0.5.1"), ("queries_resmia", "4.0"),
        ("queries_resmia", "four"),
    ])
    def test_a_bad_cell_is_named_at_the_reference_row(self, tmp_path, row,
                                                      column, cell):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, large_records(2, 2500, 500), self.META)
        lines = path.read_text().splitlines()
        cells = lines[row + 2].split(",")
        cells[attacks.SCORES_CSV_COLUMNS.index(column)] = cell
        lines[row + 2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(attacks.ScoresCsvError) as want:
            reference_read_scores_csv(path)
        with pytest.raises(attacks.ScoresCsvError) as got:
            read_scores_csv(path)
        assert f": data row {row} " in str(want.value)
        if column == "client_id" and row == 5000:  # a non-member's
            assert str(got.value) == (f"{path}: data row {row} is a "
                                      f"non-member with client_id 'x', "
                                      f"not nonmember")
        else:
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("row", [1, 2049, 5000])
    @pytest.mark.parametrize("edit", [
        lambda line: line + ",999", lambda line: line.rsplit(",", 1)[0],
    ], ids=["extra_field", "missing_field"])
    def test_a_row_of_another_width_is_named_at_the_reference_row(
            self, tmp_path, row, edit):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, large_records(2, 2500, 500), self.META)
        lines = path.read_text().splitlines()
        lines[row + 2] = edit(lines[row + 2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(attacks.ScoresCsvError) as want:
            reference_read_scores_csv(path)
        with pytest.raises(attacks.ScoresCsvError) as got:
            read_scores_csv(path)
        assert str(got.value) == str(want.value)
        assert f": data row {row} " in str(got.value)

    @pytest.mark.parametrize("is_member, client_id, fault", [
        ("1", "nonmember", "is a member with client_id 'nonmember'"),
        ("0", "3", "is a non-member with client_id '3', not nonmember"),
        ("0", "", "is a non-member with client_id '', not nonmember"),
        ("1", "", "does not parse: ValueError(\"invalid literal for int() "
                  "with base 10: ''\")"),
    ], ids=["member_nonmember", "non_member_int", "non_member_blank",
            "member_blank"])
    def test_a_client_id_that_does_not_fit_is_member_is_named(
            self, tmp_path, is_member, client_id, fault):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, large_records(3, 40, 10, 4), self.META)
        lines = path.read_text().splitlines()
        for row in (30, 45):
            cells = lines[row + 2].split(",")
            cells[1:3] = client_id, is_member
            lines[row + 2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(attacks.ScoresCsvError,
                           match=f"^{re.escape(f'{path}: data row 30 ')}"
                                 f"{re.escape(fault)}$"):
            read_scores_csv(path)

    def test_crlf_preamble_reads_the_written_metadata(self, tmp_path):
        path = tmp_path / "scores.csv"
        records = large_records(4, 30, 6)
        write_scores_csv(path, records, self.META)
        raw = path.read_bytes().replace(b"\r\n", b"\n")
        path.write_bytes(raw.replace(b"\n", b"\r\n"))
        table, meta = read_scores_csv(path)
        assert meta == {"seed": "3", "config_hash": "abc"}
        assert fields(table) == fields(records)

    @pytest.mark.parametrize("records", [
        pytest.param(lambda: large_records(5), id="large"),
        pytest.param(lambda: tied_scores_records(1), id="ties"),
        pytest.param(lambda: odd_records(len(ODD_SCORES)), id="odd_floats"),
    ])
    def test_columnar_report_equals_build_report_by_bits(self, tmp_path,
                                                         records):
        records = records()
        (table, _), _ = self.both(tmp_path, records)
        got, curves = metrics.report_and_curves(table.columns, 3)
        want = metrics.build_report(records, 3)
        assert float_bits(got.derived()) == float_bits(want.derived())
        assert all(type(cid) is int for cid in got.per_client)
        _, want_curves = metrics.report_and_curves(
            metrics.score_columns(records), 3)
        assert curves.keys() == want_curves.keys()
        for name, curve in curves.items():
            assert curve.tobytes() == want_curves[name].tobytes()
