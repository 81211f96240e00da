"""Metrics layer: confusion counts, PRF arithmetic, ROC/AUC with an
independent pair-counting oracle, report rendering, and CSV round trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgtnet.errors import (ContractError, DataError, DegenerateInputError,
                           FormatError, HgtnetError)
from hgtnet.metrics import (PredictionRecord, auc_pair_oracle, auc_trapezoid,
                            build_report, confusion_matrix,
                            precision_recall_f1, predicted_label,
                            read_predictions, render_report, roc_curve,
                            write_predictions, write_roc)

LC_NAMES = ["colon_aca", "colon_n", "lung_aca", "lung_n", "lung_scc"]


def _rec(true_label, pred_label, num_classes=5, sample_id="s"):
    """Record whose argmax lands on pred_label with a synthetic score vector."""
    scores = [(1.0 - 0.9) / (num_classes - 1)] * num_classes
    scores[pred_label] = 0.9
    return PredictionRecord(sample_id=sample_id, true_label=true_label,
                            scores=tuple(scores))


def _records_from_counts(count_grid):
    """count_grid[i][j] = number of samples with actual i predicted j."""
    records = []
    k = len(count_grid)
    n = 0
    for i, row in enumerate(count_grid):
        for j, c in enumerate(row):
            for _ in range(c):
                records.append(_rec(i, j, num_classes=k, sample_id=f"s{n}"))
                n += 1
    return records


class TestConfusion:
    def test_hand_counted_tally(self):
        records = [_rec(0, 0), _rec(0, 1), _rec(1, 1), _rec(1, 1), _rec(2, 0)]
        cm = confusion_matrix(records, 3)
        assert cm.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 0]]
        assert cm.sum() == len(records)

    def test_rows_are_actual_columns_predicted(self):
        cm = confusion_matrix([_rec(2, 0, num_classes=3)], 3)
        assert cm[2, 0] == 1 and cm[0, 2] == 0

    def test_label_out_of_range(self):
        bad = PredictionRecord("x", 7, (0.5, 0.5))
        with pytest.raises(ContractError, match="7"):
            confusion_matrix([bad], 2)

    def test_argmax_tie_goes_to_lowest_index(self):
        assert predicted_label((0.4, 0.4, 0.2)) == 0


class TestPrf:
    def test_perfect_predictions(self):
        cm = np.diag([10, 20, 30])
        prf = precision_recall_f1(cm)
        assert np.array_equal(prf.precision, np.ones(3))
        assert np.array_equal(prf.recall, np.ones(3))
        assert np.array_equal(prf.f1, np.ones(3))
        assert prf.accuracy == 1.0
        assert prf.macro_avg == (1.0, 1.0, 1.0)
        assert prf.weighted_avg == (1.0, 1.0, 1.0)

    def test_binary_hand_arithmetic(self):
        # actual 0: 8 right, 2 wrong; actual 1: 3 wrong, 7 right
        cm = np.array([[8, 2], [3, 7]])
        prf = precision_recall_f1(cm)
        assert prf.precision[0] == 8 / 11 and prf.precision[1] == 7 / 9
        assert prf.recall[0] == 0.8 and prf.recall[1] == 0.7
        f0 = 2 * (8 / 11) * 0.8 / (8 / 11 + 0.8)
        assert abs(prf.f1[0] - f0) < 1e-15
        assert prf.accuracy == 15 / 20
        assert abs(prf.macro_avg[1] - 0.75) < 1e-15
        # equal supports make weighted == macro
        assert abs(prf.weighted_avg[1] - prf.macro_avg[1]) < 1e-15

    def test_never_predicted_class_flagged_zero(self):
        cm = np.array([[5, 0, 0], [5, 0, 0], [0, 0, 5]])  # class 1 never predicted
        prf = precision_recall_f1(cm)
        assert prf.precision[1] == 0.0 and prf.recall[1] == 0.0 and prf.f1[1] == 0.0
        assert prf.precision[2] == prf.recall[2] == prf.f1[2] == 1.0

    def test_absent_class_flagged(self):
        cm = np.array([[5, 0], [0, 0]])  # class 1 has no actual samples
        prf = precision_recall_f1(cm)
        assert prf.precision[1] == prf.recall[1] == prf.f1[1] == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractError):
            precision_recall_f1(np.zeros((3, 3)))

    def test_weighted_average_oracle(self):
        cm = np.array([[6, 1, 0], [2, 8, 1], [0, 2, 10]])
        prf = precision_recall_f1(cm)
        support = cm.sum(axis=1)
        expect = float(prf.recall @ support) / support.sum()
        assert abs(prf.weighted_avg[1] - expect) < 1e-15


class TestPaperArithmetic:
    """The three recall cells that are arithmetic-checkable from stated counts:
    474/500, 490/500, and 453/499 render as 0.95, 0.98, 0.91."""

    def _report(self):
        grid = [
            [474, 13, 13],   # 474 of 500 correct
            [5, 490, 5],     # 490 of 500 correct
            [23, 23, 453],   # 453 of 499 correct
        ]
        records = _records_from_counts(grid)
        return build_report(records, 3, class_names=["aca", "normal", "scc"])

    def test_exact_rational_recalls(self):
        prf = self._report().prf
        assert prf.recall[0] == 474 / 500
        assert prf.recall[1] == 490 / 500
        assert prf.recall[2] == 453 / 499
        assert abs(prf.recall[0] - 0.948) < 1e-12
        assert abs(prf.recall[1] - 0.980) < 1e-12
        assert abs(prf.recall[2] - 0.9078156312625250) < 1e-12

    def test_rendered_cells_round_to_two_decimals(self):
        text = render_report(self._report())
        rows = [ln for ln in text.splitlines() if ln.strip()]
        by_name = {ln.split()[0]: ln.split() for ln in rows[1:]}
        assert by_name["aca"][2] == "0.95"
        assert by_name["normal"][2] == "0.98"
        assert by_name["scc"][2] == "0.91"
        assert by_name["aca"][4] == "500"
        assert by_name["scc"][4] == "499"


class TestRounding:
    def test_half_up_not_bankers(self):
        # recall 5/8 = 0.625 must render 0.63 (banker's rounding would say 0.62)
        records = _records_from_counts([[5, 3], [0, 8]])
        text = render_report(build_report(records, 2, class_names=["a", "b"]))
        row = next(ln.split() for ln in text.splitlines() if ln.strip().startswith("a "))
        assert row[2] == "0.63"

    def test_everything_two_decimals(self):
        records = _records_from_counts([[7, 2], [1, 5]])
        text = render_report(build_report(records, 2, class_names=["x", "y"]))
        for line in text.splitlines():
            parts = line.split()
            for cell in parts[1:-1]:
                if "." in cell:
                    assert len(cell.split(".")[1]) == 2, line


class TestRoc:
    def test_perfect_separation(self):
        records = [PredictionRecord(f"p{i}", 1, (0.1, 0.9)) for i in range(4)]
        records += [PredictionRecord(f"n{i}", 0, (0.8, 0.2)) for i in range(6)]
        curve = roc_curve(records, 1)
        assert np.array_equal(curve, [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert auc_trapezoid(curve) == 1.0
        assert auc_pair_oracle(records, 1) == 1.0

    def test_all_ties_is_chance(self):
        records = [PredictionRecord(f"p{i}", 1, (0.5, 0.5)) for i in range(3)]
        records += [PredictionRecord(f"n{i}", 0, (0.5, 0.5)) for i in range(5)]
        curve = roc_curve(records, 1)
        assert np.array_equal(curve, [[0.0, 0.0], [1.0, 1.0]])
        assert auc_trapezoid(curve) == 0.5
        assert auc_pair_oracle(records, 1) == 0.5

    def test_pair_oracle_hand_case(self):
        # positives 0.9 and 0.4, negative 0.5: one win, one loss -> 0.5
        records = [PredictionRecord("a", 1, (0.1, 0.9)),
                   PredictionRecord("b", 1, (0.6, 0.4)),
                   PredictionRecord("c", 0, (0.5, 0.5))]
        assert auc_pair_oracle(records, 1) == 0.5

    def test_exhaustive_threshold_oracle(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.uniform(size=40), 1)   # coarse grid forces ties
        truth = rng.uniform(size=40) < 0.4
        if not truth.any() or truth.all():
            truth[0] = True
            truth[1] = False
        records = [PredictionRecord(f"s{i}", int(truth[i]), (1 - s, s))
                   for i, s in enumerate(scores)]
        curve = roc_curve(records, 1)
        pos, neg = truth.sum(), (~truth).sum()
        expect = [(0.0, 0.0)]
        for theta in sorted(set(scores), reverse=True):
            hit = scores >= theta
            expect.append(((hit & ~truth).sum() / neg, (hit & truth).sum() / pos))
        assert np.allclose(curve, expect, atol=0)

    def test_curve_starts_at_origin_ends_at_one_one(self):
        rng = np.random.default_rng(11)
        records = [PredictionRecord(f"s{i}", int(i % 3 == 0),
                                    tuple(rng.dirichlet(np.ones(2))))
                   for i in range(30)]
        curve = roc_curve(records, 1)
        assert tuple(curve[0]) == (0.0, 0.0)
        assert tuple(curve[-1]) == (1.0, 1.0)

    def test_single_class_rejected(self):
        records = [PredictionRecord("a", 1, (0.3, 0.7))]
        with pytest.raises(DegenerateInputError):
            roc_curve(records, 1)

    def test_trapezoid_rejects_decreasing_curve(self):
        with pytest.raises(ContractError):
            auc_trapezoid(np.array([[0.0, 0.0], [0.5, 0.5], [0.2, 0.7]]))


class TestAucEquivalence:
    def test_trapezoid_matches_pair_counting(self):
        rng = np.random.default_rng(99)
        for trial in range(200):
            n = int(rng.integers(4, 60))
            scores = rng.uniform(size=n)
            if trial % 2:
                scores = np.round(scores, 1)  # inject ties
            truth = rng.uniform(size=n) < rng.uniform(0.2, 0.8)
            if not truth.any():
                truth[0] = True
            if truth.all():
                truth[-1] = False
            records = [PredictionRecord(f"s{i}", int(truth[i]),
                                        (1 - scores[i], scores[i]))
                       for i in range(n)]
            a1 = auc_trapezoid(roc_curve(records, 1))
            a2 = auc_pair_oracle(records, 1)
            assert abs(a1 - a2) < 1e-9, f"trial {trial}: {a1} vs {a2}"

    def test_order_insensitive(self):
        rng = np.random.default_rng(5)
        records = [PredictionRecord(f"s{i}", int(i % 2), tuple(rng.dirichlet(np.ones(2))))
                   for i in range(25)]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert np.array_equal(roc_curve(records, 1), roc_curve(shuffled, 1))
        assert np.array_equal(confusion_matrix(records, 2),
                              confusion_matrix(shuffled, 2))


class TestReportStructure:
    def _records(self):
        rng = np.random.default_rng(7)
        out = []
        for i in range(60):
            true = int(rng.integers(5))
            scores = rng.dirichlet(np.ones(5))
            out.append(PredictionRecord(f"s{i}", true, tuple(scores)))
        return out

    def test_render_has_all_rows(self):
        report = build_report(self._records(), 5, class_names=LC_NAMES)
        text = render_report(report)
        lines = text.splitlines()
        for name in LC_NAMES:
            assert any(ln.strip().startswith(name) for ln in lines)
        assert any(ln.strip().startswith("Accuracy") for ln in lines)
        assert any(ln.strip().startswith("Macro Avg") for ln in lines)
        assert any(ln.strip().startswith("Weighted Avg") for ln in lines)
        header = lines[0]
        for col in ("precision", "recall", "f1-score", "support"):
            assert col in header

    def test_support_column_sums_to_total(self):
        records = self._records()
        report = build_report(records, 5, class_names=LC_NAMES)
        assert int(report.prf.support.sum()) == len(records)

    def test_degenerate_class_gets_none_auc(self):
        records = [_rec(0, 0), _rec(0, 1), _rec(1, 1)]  # class 2..4 absent
        report = build_report(records, 5)
        assert report.auc[4] is None and report.roc[4] is None
        assert report.auc[0] is not None

    def test_name_count_mismatch(self):
        with pytest.raises(ContractError):
            build_report([_rec(0, 0)], 5, class_names=["just_one"])


class TestPredictionCsv:
    def _records(self):
        rng = np.random.default_rng(13)
        out = []
        for i in range(12):
            scores = rng.dirichlet(np.ones(5))
            out.append(PredictionRecord(f"cls/s{i:03d}.ppm", int(rng.integers(5)),
                                        tuple(float(v) for v in scores)))
        return out

    def test_round_trip_is_exact(self, tmp_path):
        records = self._records()
        path = tmp_path / "pred.csv"
        write_predictions(path, records)
        back = read_predictions(path)
        assert back == records  # %.17g round-trips every float64 exactly

    def test_ids_with_commas_quotes_and_line_breaks_round_trip(self, tmp_path):
        # an id with a comma gave its row one field too many
        ids = ["class0/a,b.ppm", 'q"uo"te', '"', "line\nbreak", "cr\rlf\r\n", "\n",
               " padded ", "", "a\u2028b", "plain"]
        records = [PredictionRecord(sample_id, i % 2, (0.25, 0.75))
                   for i, sample_id in enumerate(ids)]
        path = tmp_path / "pred.csv"
        write_predictions(path, records)
        assert read_predictions(path) == records
        assert path.read_bytes().endswith(b"\nplain,1,0.25,0.75\n")

    def test_line_number_counts_the_lines_of_a_quoted_id(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text('sample_id,true_label,score_0,score_1\n'
                        '"a\nb",0,0.5,0.5\n'
                        'c,zero,0.5,0.5\n')
        with pytest.raises(DataError, match="line 4"):
            read_predictions(path)

    def test_at_least_nine_significant_digits(self, tmp_path):
        records = [PredictionRecord("a", 0, (1 / 3, 2 / 3))]
        path = tmp_path / "pred.csv"
        write_predictions(path, records)
        row = path.read_text().splitlines()[1]
        frac = row.split(",")[2]
        digits = frac.replace("0.", "")
        assert len(digits) >= 9

    def test_header_names_scores(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions(path, self._records())
        header = path.read_text().splitlines()[0]
        assert header == "sample_id,true_label," + ",".join(
            f"score_{i}" for i in range(5))

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("sample_id,true_label,score_0,score_1\n"
                        "a,0,0.5,0.5\n"
                        "b,zero,0.5,0.5\n")
        with pytest.raises(DataError, match="line 3"):
            read_predictions(path)

    def test_wrong_width_reports_line_number(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("sample_id,true_label,score_0,score_1\n"
                        "a,0,0.5\n")
        with pytest.raises(DataError, match="line 2"):
            read_predictions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_predictions(path)
        with pytest.raises(DataError):
            write_predictions(path, [])

    def test_metrics_from_reloaded_records_match(self, tmp_path):
        records = self._records()
        path = tmp_path / "pred.csv"
        write_predictions(path, records)
        back = read_predictions(path)
        r1 = build_report(records, 5)
        r2 = build_report(back, 5)
        assert np.array_equal(r1.confusion, r2.confusion)
        assert r1.auc == r2.auc


class TestRocDump:
    def test_format_and_values(self, tmp_path):
        records = [PredictionRecord(f"p{i}", 1, (0.2, 0.8)) for i in range(3)]
        records += [PredictionRecord(f"n{i}", 0, (0.6, 0.4)) for i in range(3)]
        curve = roc_curve(records, 1)
        path = tmp_path / "roc.csv"
        write_roc(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed, curve)


_FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

_HEADER = b"sample_id,true_label,score_0,score_1\n"


def _read_bytes(tmp_path, blob):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(blob)
    try:
        records = read_predictions(path)
    except HgtnetError:
        return None
    assert records and all(isinstance(r, PredictionRecord) for r in records)
    return records


class TestPredictionCsvFuzz:
    """Whatever the bytes, the reader returns records or raises an
    HgtnetError; any other exception fails the property."""

    def test_non_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_bytes(b"\xff\xfe" + _HEADER)
        with pytest.raises(FormatError, match="UTF-8"):
            read_predictions(path)

    @_FUZZ
    @given(blob=st.binary(max_size=256))
    def test_arbitrary_bytes(self, tmp_path, blob):
        _read_bytes(tmp_path, blob)

    @_FUZZ
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes_after_a_valid_header(self, tmp_path, blob):
        _read_bytes(tmp_path, _HEADER + blob)

    @_FUZZ
    @given(cells=st.lists(st.sampled_from(
        ["s0", "1", "-1", "0.5", "nan", "inf", "1e400", "", '"', ",", "\n", "\r", "\x00"]),
        max_size=24))
    def test_rows_of_csv_tokens(self, tmp_path, cells):
        _read_bytes(tmp_path, _HEADER + "".join(cells).encode("utf-8"))
