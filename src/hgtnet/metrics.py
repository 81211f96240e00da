"""Classification metrics: confusion matrix, precision/recall/F1 summary,
one-vs-rest ROC curves with trapezoidal AUC, and a pair-counting AUC oracle
used to cross-check the trapezoid.

Everything here is a pure function of the prediction records; record order
never affects any output.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import ContractError, DataError, DegenerateInputError, FormatError


@dataclass(frozen=True)
class PredictionRecord:
    sample_id: str
    true_label: int
    scores: tuple[float, ...]


@dataclass
class PrfSummary:
    precision: np.ndarray      # (K,)
    recall: np.ndarray         # (K,)
    f1: np.ndarray             # (K,)
    support: np.ndarray        # (K,) int
    accuracy: float
    macro_avg: tuple[float, float, float]     # precision, recall, f1
    weighted_avg: tuple[float, float, float]


@dataclass
class MetricsReport:
    confusion: np.ndarray                     # (K, K) counts, rows = actual
    prf: PrfSummary
    roc: list[np.ndarray | None]              # per class: (points, 2) or None
    auc: list[float | None]
    class_names: list[str]


def predicted_label(scores) -> int:
    """Argmax with ties broken toward the lowest class index."""
    return int(np.argmax(np.asarray(scores)))


def confusion_matrix(records: list[PredictionRecord], num_classes: int) -> np.ndarray:
    out = np.zeros((num_classes, num_classes), dtype=np.int64)
    for r in records:
        if not 0 <= r.true_label < num_classes:
            raise ContractError(f"label {r.true_label} outside [0, {num_classes}) "
                                f"for sample {r.sample_id}")
        out[r.true_label, predicted_label(r.scores)] += 1
    return out


def precision_recall_f1(confusion: np.ndarray) -> PrfSummary:
    confusion = np.asarray(confusion)
    if confusion.size == 0 or confusion.sum() == 0:
        raise ContractError("cannot summarize an empty confusion matrix")
    diag = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    support = confusion.sum(axis=1)
    total = float(support.sum())
    accuracy = float(np.trace(confusion)) / total
    macro = (float(precision.mean()), float(recall.mean()), float(f1.mean()))
    weighted = (float(precision @ support / total),
                float(recall @ support / total),
                float(f1 @ support / total))
    return PrfSummary(precision=precision, recall=recall, f1=f1, support=support,
                      accuracy=accuracy, macro_avg=macro, weighted_avg=weighted)


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

def _scores_and_truth(records, positive_class):
    scores = np.array([r.scores[positive_class] for r in records], dtype=np.float64)
    truth = np.array([r.true_label == positive_class for r in records])
    pos, neg = int(truth.sum()), int((~truth).sum())
    if pos == 0 or neg == 0:
        raise DegenerateInputError(
            f"ROC for class {positive_class} needs both positive and negative samples "
            f"(got {pos} positive, {neg} negative)")
    return scores, truth, pos, neg


def roc_curve(records: list[PredictionRecord], positive_class: int) -> np.ndarray:
    """One-vs-rest curve: one threshold per distinct score, descending,
    anchored at (0,0); returns an (n, 2) array of (fpr, tpr) points."""
    scores, truth, pos, neg = _scores_and_truth(records, positive_class)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    hits = truth[order].astype(np.int64)
    tp = np.cumsum(hits)
    fp = np.arange(1, len(s) + 1) - tp
    # keep the last index of every run of equal scores: the >= threshold sweep
    boundary = np.append(s[1:] != s[:-1], True)
    points = np.column_stack([fp[boundary] / neg, tp[boundary] / pos])
    return np.vstack([[0.0, 0.0], points])


def auc_trapezoid(curve: np.ndarray) -> float:
    curve = np.asarray(curve, dtype=np.float64)
    if curve.ndim != 2 or curve.shape[1] != 2:
        raise ContractError(f"curve must be (n, 2) points, got {curve.shape}")
    fpr, tpr = curve[:, 0], curve[:, 1]
    if (np.diff(fpr) < 0).any() or (np.diff(tpr) < 0).any():
        raise ContractError("ROC curve points must be monotone non-decreasing")
    return float(np.trapezoid(tpr, fpr))


def auc_pair_oracle(records: list[PredictionRecord], positive_class: int) -> float:
    """Exhaustive P(score_pos > score_neg) + 0.5 P(tie) over all pairs."""
    scores, truth, pos, neg = _scores_and_truth(records, positive_class)
    p = scores[truth][:, None]
    n = scores[~truth][None, :]
    wins = float((p > n).sum())
    ties = float((p == n).sum())
    return (wins + 0.5 * ties) / (pos * neg)


def build_report(records: list[PredictionRecord], num_classes: int,
                 class_names: list[str] | None = None) -> MetricsReport:
    if class_names is None:
        class_names = [f"class_{k}" for k in range(num_classes)]
    if len(class_names) != num_classes:
        raise ContractError(f"{len(class_names)} class names for {num_classes} classes")
    confusion = confusion_matrix(records, num_classes)
    prf = precision_recall_f1(confusion)
    roc: list[np.ndarray | None] = []
    auc: list[float | None] = []
    for k in range(num_classes):
        try:
            curve = roc_curve(records, k)
        except DegenerateInputError:
            roc.append(None)
            auc.append(None)
            continue
        roc.append(curve)
        auc.append(auc_trapezoid(curve))
    return MetricsReport(confusion=confusion, prf=prf, roc=roc, auc=auc,
                         class_names=list(class_names))


# ---------------------------------------------------------------------------
# rendering and CSV I/O
# ---------------------------------------------------------------------------

def _cell(x: float) -> str:
    """Two decimals, rounding halves up (0.945 -> 0.95)."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_report(report: MetricsReport) -> str:
    """Fixed-width text table: one row per class, then Accuracy, Macro Avg,
    Weighted Avg, with two-decimal cells and integral supports."""
    prf = report.prf
    name_w = max(12, max(len(n) for n in report.class_names))
    total = int(prf.support.sum())
    header = f"{'':>{name_w}}  {'precision':>9}  {'recall':>9}  {'f1-score':>9}  {'support':>9}"
    lines = [header, ""]
    for k, name in enumerate(report.class_names):
        lines.append(f"{name:>{name_w}}  {_cell(prf.precision[k]):>9}  "
                     f"{_cell(prf.recall[k]):>9}  {_cell(prf.f1[k]):>9}  "
                     f"{int(prf.support[k]):>9}")
    lines.append("")
    lines.append(f"{'Accuracy':>{name_w}}  {'':>9}  {'':>9}  {_cell(prf.accuracy):>9}  {total:>9}")
    for label, triple in (("Macro Avg", prf.macro_avg), ("Weighted Avg", prf.weighted_avg)):
        p, r, f1 = triple
        lines.append(f"{label:>{name_w}}  {_cell(p):>9}  {_cell(r):>9}  "
                     f"{_cell(f1):>9}  {total:>9}")
    return "\n".join(lines) + "\n"


def write_predictions(path, records: list[PredictionRecord]) -> None:
    if not records:
        raise DataError("refusing to write an empty prediction file")
    k = len(records[0].scores)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("sample_id,true_label," + ",".join(f"score_{i}" for i in range(k)) + "\n")
        for r in records:
            sample_id = r.sample_id
            if any(c in sample_id for c in ',"\r\n'):
                # RFC 4180 quoting (csv.writer would leave a lone "\r" bare)
                sample_id = '"' + sample_id.replace('"', '""') + '"'
            scores = ",".join(f"{s:.17g}" for s in r.scores)
            fh.write(f"{sample_id},{r.true_label},{scores}\n")


def read_predictions(path) -> list[PredictionRecord]:
    records: list[PredictionRecord] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty prediction file") from None
    if header[:2] != ["sample_id", "true_label"] or len(header) < 3:
        raise DataError(f"{path}: line 1: bad header {header!r}")
    width = len(header)
    for row in reader:
        lineno = reader.line_num  # the row's last line: a quoted id may span lines
        if not row:
            continue
        if len(row) != width:
            raise DataError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
        try:
            label = int(row[1])
            scores = tuple(float(v) for v in row[2:])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        if not all(np.isfinite(scores)):
            raise DataError(f"{path}: line {lineno}: non-finite score")
        if not 0 <= label < len(scores):
            raise DataError(f"{path}: line {lineno}: label {label} outside "
                            f"[0, {len(scores)})")
        records.append(PredictionRecord(sample_id=row[0], true_label=label, scores=scores))
    if not records:
        raise DataError(f"{path}: no prediction rows")
    return records


def write_roc(path, curve: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in curve:
            fh.write(f"{fpr:.17g},{tpr:.17g}\n")
