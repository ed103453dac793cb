"""Frame-level evaluation: clustering and event-detection error rates.

A frame is a clustering-error frame when any person sits in a predicted
group whose member set differs from their true group's member set (group ids
never matter).  A frame is an error frame when it has a clustering error, a
wrong symmetric label on a correctly clustered group, or a wrong relation
label between two correctly clustered groups.  Unannotated people count as
singletons; group pairs without an explicit relation record default to the
non-interaction label.  A None pair label (no evidence) matches no true
relation and asserts no activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .seqmodel import DataError
from .taxonomy import IGNORE, LEVELS, SINGLE, is_grouping
from .trackio import AnnotationSet


@dataclass(frozen=True)
class Ratio:
    num: int
    den: int

    @property
    def value(self) -> float | None:
        if self.den == 0:
            return None
        return self.num / self.den

    def __str__(self) -> str:
        v = self.value
        shown = "undefined" if v is None else f"{v:.4f}"
        return f"{self.num}/{self.den} = {shown}"


@dataclass(frozen=True)
class ActivityScore:
    miss: Ratio
    fa: Ratio


@dataclass(frozen=True)
class EvalReport:
    frames: int
    skipped: int
    tfer: Ratio
    gcer: Ratio
    eder: Ratio
    per_activity: dict[str, ActivityScore] = field(default_factory=dict)

    def format_text(self) -> str:
        lines = [
            f"frames {self.frames}",
            f"skipped {self.skipped}",
            f"gcer {self.gcer}",
            f"eder {self.eder}",
            f"tfer {self.tfer}",
        ]
        for label in sorted(self.per_activity):
            s = self.per_activity[label]
            lines.append(f"activity {label} miss {s.miss} fa {s.fa}")
        return "\n".join(lines)

    def csv_rows(self) -> list[str]:
        rows = ["activity,miss_num,miss_den,fa_num,fa_den"]
        for label in sorted(self.per_activity):
            s = self.per_activity[label]
            rows.append(f"{label},{s.miss.num},{s.miss.den},{s.fa.num},{s.fa.den}")
        return rows


@dataclass(frozen=True)
class TruthFrame:
    """Ground truth at one frame over a fixed person universe."""

    groups: tuple[tuple[frozenset, str], ...]
    pair_labels: dict[frozenset, str]

    def member_sets(self) -> list[frozenset]:
        return [g[0] for g in self.groups]

    def relation(self, a: frozenset, b: frozenset) -> str:
        return self.pair_labels.get(frozenset((a, b)), IGNORE)


def truth_frame(annotations: AnnotationSet, t: int, universe) -> TruthFrame:
    """Derive the true partition and relation labels at frame ``t``.

    Only grouping records (and explicit singles) define groups; every other
    person in the universe is a singleton.  Relation labels come from
    inter-group records whose two groups are both present.
    """
    universe = set(universe)
    groups: list[tuple[frozenset, str]] = []
    taken: set[int] = set()
    for rec in annotations.sym_records():
        if not rec.active_at(t):
            continue
        if not (is_grouping(rec.label) or rec.label == SINGLE):
            continue
        members = frozenset(rec.members) & universe
        if not members:
            continue
        if taken & members:
            raise DataError(
                f"ground-truth groups overlap at frame {t}: {sorted(taken & members)}"
            )
        taken |= members
        groups.append((members, rec.label))
    for p in sorted(universe - taken):
        groups.append((frozenset((p,)), SINGLE))
    groups.sort(key=lambda g: sorted(g[0]))

    pair_labels: dict[frozenset, str] = {}
    for rec in annotations.asym_records():
        if not rec.active_at(t):
            continue
        ma = annotations.group_members(rec.groups[0], t)
        mb = annotations.group_members(rec.groups[1], t)
        if ma is None or mb is None:
            continue
        fa = frozenset(ma) & universe
        fb = frozenset(mb) & universe
        if fa and fb:
            pair_labels[frozenset((fa, fb))] = rec.label
    return TruthFrame(tuple(groups), pair_labels)


def partition_match(predicted: list[frozenset], truth: list[frozenset]) -> set[int]:
    """People whose predicted group's member set differs from their true group's."""
    pred_universe = set().union(*predicted) if predicted else set()
    truth_universe = set().union(*truth) if truth else set()
    if pred_universe != truth_universe:
        raise DataError(
            f"person universes differ: {sorted(pred_universe ^ truth_universe)}"
        )
    by_person_pred = {p: ms for ms in predicted for p in ms}
    by_person_truth = {p: ms for ms in truth for p in ms}
    return {p for p in pred_universe if by_person_pred[p] != by_person_truth[p]}


def _check_labels(det) -> None:
    """Reject a group or pair label outside the taxonomy; a pair label may be None."""
    pair_labels = [p.label for p in det.pair_labels if p.label is not None]
    for kind, labels in (("group", det.group_labels), ("pair", pair_labels)):
        for label in labels:
            if label not in LEVELS:
                raise DataError(f"frame {det.frame}: {kind} label {label!r} is not in the taxonomy")


def score(detections, annotations: AnnotationSet, frames=None) -> EvalReport:
    """Error rates of a detection stream against ground-truth annotations."""
    frame_filter = None if frames is None else set(frames)
    n_frames = 0
    n_skipped = 0
    gcer_num = 0
    eder_num = 0
    tfer_num = 0
    tfer_den = 0
    labels = sorted(LEVELS)
    pos = {l: 0 for l in labels}
    fn = {l: 0 for l in labels}
    neg = {l: 0 for l in labels}
    fp = {l: 0 for l in labels}

    for det in detections:
        _check_labels(det)
        if frame_filter is not None and det.frame not in frame_filter:
            continue
        if det.partition is None:
            n_skipped += 1
            continue
        n_frames += 1
        t = det.frame
        universe = det.partition.persons
        truth = truth_frame(annotations, t, universe)
        pred_sets = det.partition.member_sets()
        pred_labels = {
            frozenset(g.members): det.group_labels[i]
            for i, g in enumerate(det.partition.groups)
        }
        mis = partition_match([frozenset(s) for s in pred_sets], truth.member_sets())
        clustering_error = bool(mis)

        sym_error = False
        for ms, lbl in truth.groups:
            got = pred_labels.get(ms)
            if got is not None and got != lbl:
                sym_error = True

        pair_error = False
        pred_pairs = {}
        for pl in det.pair_labels:
            ka = frozenset(det.partition.groups[pl.a].members)
            kb = frozenset(det.partition.groups[pl.b].members)
            pred_pairs[frozenset((ka, kb))] = pl.label
        truth_sets = set(truth.member_sets())
        for key, lbl in pred_pairs.items():
            a, b = tuple(key)
            if a in truth_sets and b in truth_sets:
                if lbl != truth.relation(a, b):
                    pair_error = True

        if clustering_error:
            gcer_num += 1
        if clustering_error or sym_error or pair_error:
            eder_num += 1

        # explicit-instance stream for the total frame error rate
        explicit: list[bool] = []
        for ms, lbl in truth.groups:
            if len(ms) > 1 or truth_has_explicit_single(annotations, t, ms):
                explicit.append(pred_labels.get(ms) == lbl)
        for key, lbl in truth.pair_labels.items():
            explicit.append(pred_pairs.get(key) == lbl)
        if explicit:
            tfer_den += 1
            if not all(explicit):
                tfer_num += 1

        # per-activity frame-level assertions; unlabelled group pairs count
        # as asserting the non-interaction label on both sides
        truth_asserted = {lbl for _, lbl in truth.groups}
        truth_asserted |= set(truth.pair_labels.values())
        if len(truth.groups) > 1:
            explicit_pairs = set(truth.pair_labels)
            all_pairs = {
                frozenset((a, b))
                for i, (a, _) in enumerate(truth.groups)
                for (b, _) in truth.groups[i + 1 :]
            }
            if all_pairs - explicit_pairs:
                truth_asserted.add(IGNORE)
        pred_asserted = set(pred_labels.values()) | set(pred_pairs.values())
        for l in labels:
            if l in truth_asserted:
                pos[l] += 1
                if l not in pred_asserted:
                    fn[l] += 1
            else:
                neg[l] += 1
                if l in pred_asserted:
                    fp[l] += 1

    per_activity = {
        l: ActivityScore(miss=Ratio(fn[l], pos[l]), fa=Ratio(fp[l], neg[l])) for l in labels
    }
    return EvalReport(
        frames=n_frames,
        skipped=n_skipped,
        tfer=Ratio(tfer_num, tfer_den),
        gcer=Ratio(gcer_num, n_frames),
        eder=Ratio(eder_num, n_frames),
        per_activity=per_activity,
    )


def truth_has_explicit_single(annotations: AnnotationSet, t: int, members: frozenset) -> bool:
    for rec in annotations.sym_records():
        if rec.active_at(t) and rec.label == SINGLE and frozenset(rec.members) == members:
            return True
    return False

