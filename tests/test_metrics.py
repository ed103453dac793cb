"""Metric tests on hand-built fixtures with exact expected values."""

import pytest

from groupact.clustering import GroupAssignment, Partition
from groupact.grad import FrameDetection, PairLabel
from groupact.metrics import partition_match, score, truth_frame
from groupact.seqmodel import DataError
from groupact.trackio import AnnotationRecord, AnnotationSet


def ann(records):
    return AnnotationSet(records)


def det(frame, groups, labels, pairs=()):
    gas = tuple(GroupAssignment(tuple(sorted(m)), tuple(sorted(m)), lbl)
                for m, lbl in zip(groups, labels))
    persons = tuple(sorted(p for g in groups for p in g))
    return FrameDetection(frame, Partition(frame, persons, gas), tuple(labels), tuple(pairs))


TRUTH = ann([
    AnnotationRecord("sym", "Fight", 0, 9, members=(1, 2), group_id="g1"),
    AnnotationRecord("sym", "single", 0, 9, members=(3,), group_id="g3"),
    AnnotationRecord("asym", "Approach", 0, 9, groups=("g1", "g3")),
])


def perfect_frame(t):
    return det(t, [(1, 2), (3,)], ["Fight", "single"], [PairLabel(0, 1, "Approach")])


def test_identical_detections_score_zero():
    dets = [perfect_frame(t) for t in range(10)]
    rep = score(dets, TRUTH)
    assert rep.gcer.value == 0.0
    assert rep.eder.value == 0.0
    assert rep.tfer.value == 0.0
    for s in rep.per_activity.values():
        assert s.miss.value in (0.0, None)
        assert s.fa.value in (0.0, None)


def test_one_error_frame_in_ten_is_point_one():
    dets = [perfect_frame(t) for t in range(9)]
    # frame 9: wrong pair label
    dets.append(det(9, [(1, 2), (3,)], ["Fight", "single"], [PairLabel(0, 1, "Chase")]))
    rep = score(dets, TRUTH)
    assert rep.eder.num == 1 and rep.eder.den == 10
    assert rep.eder.value == pytest.approx(0.1)
    assert rep.gcer.value == 0.0  # clustering was right everywhere
    assert rep.gcer.value <= rep.eder.value


def test_clustering_error_counts_in_both():
    dets = [perfect_frame(t) for t in range(8)]
    for t in (8, 9):
        dets.append(det(t, [(1,), (2,), (3,)], ["single", "single", "single"],
                        [PairLabel(0, 1, "Ignore"), PairLabel(0, 2, "Ignore"),
                         PairLabel(1, 2, "Ignore")]))
    rep = score(dets, TRUTH)
    assert rep.gcer.num == 2
    assert rep.eder.num == 2
    assert rep.gcer.value <= rep.eder.value


def test_symmetric_label_error():
    dets = [perfect_frame(t) for t in range(9)]
    dets.append(det(9, [(1, 2), (3,)], ["WalkTogether", "single"],
                    [PairLabel(0, 1, "Approach")]))
    rep = score(dets, TRUTH)
    assert rep.gcer.num == 0
    assert rep.eder.num == 1
    miss = rep.per_activity["Fight"].miss
    assert (miss.num, miss.den) == (1, 10)
    fa = rep.per_activity["WalkTogether"].fa
    assert (fa.num, fa.den) == (1, 10)


def test_miss_fa_arithmetic():
    # activity asserted on 5 frames, missed on 1; false alarm on 2 of 5 negatives
    truth = ann([
        AnnotationRecord("sym", "Fight", 0, 4, members=(1, 2), group_id="g1"),
    ])
    dets = []
    for t in range(10):
        if t < 5:
            lbl = "WalkTogether" if t == 4 else "Fight"
            dets.append(det(t, [(1, 2)], [lbl]))
        else:
            lbl = "Fight" if t in (5, 6) else "WalkTogether"
            dets.append(det(t, [(1, 2)], [lbl]))
    # truth after frame 4: persons 1, 2 unannotated -> they are two singles;
    # a (1,2) group is a clustering error but Fight FA still counts
    rep = score(dets, truth)
    fight = rep.per_activity["Fight"]
    assert (fight.miss.num, fight.miss.den) == (1, 5)
    assert (fight.fa.num, fight.fa.den) == (2, 5)


def test_partition_match_examples():
    assert partition_match([frozenset({1, 2}), frozenset({3})],
                           [frozenset({1, 2}), frozenset({3})]) == set()
    # truth {1,2},{3}; predicted singletons -> 1 and 2 are mis-clustered
    assert partition_match([frozenset({1}), frozenset({2}), frozenset({3})],
                           [frozenset({1, 2}), frozenset({3})]) == {1, 2}
    # ids are irrelevant: same member sets in any order match
    assert partition_match([frozenset({3}), frozenset({1, 2})],
                           [frozenset({1, 2}), frozenset({3})]) == set()


def test_partition_match_universe_mismatch():
    with pytest.raises(DataError):
        partition_match([frozenset({1})], [frozenset({1, 2})])


def test_truth_frame_structure():
    tf = truth_frame(TRUTH, 5, (1, 2, 3))
    assert (frozenset({1, 2}), "Fight") in tf.groups
    assert tf.relation(frozenset({1, 2}), frozenset({3})) == "Approach"
    # uncovered person defaults to a singleton
    tf2 = truth_frame(TRUTH, 5, (1, 2, 3, 9))
    assert (frozenset({9}), "single") in tf2.groups
    assert tf2.relation(frozenset({1, 2}), frozenset({9})) == "Ignore"


def test_truth_frame_rejects_overlapping_groups():
    bad = ann([
        AnnotationRecord("sym", "Fight", 0, 9, members=(1, 2), group_id="a"),
        AnnotationRecord("sym", "WalkTogether", 0, 9, members=(2, 3), group_id="b"),
    ])
    with pytest.raises(DataError):
        truth_frame(bad, 3, (1, 2, 3))


def detections_from_truth(annotations: AnnotationSet, universes: dict[int, tuple]) -> list:
    """Convert ground truth into a detection stream (for self-scoring checks)."""
    out = []
    for t in sorted(universes):
        truth = truth_frame(annotations, t, universes[t])
        groups = []
        labels = []
        for ms, lbl in truth.groups:
            members = tuple(sorted(ms))
            groups.append(GroupAssignment(members, members, lbl))
            labels.append(lbl)
        partition = Partition(t, tuple(sorted(universes[t])), tuple(groups))
        pairs = []
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                rel = truth.relation(
                    frozenset(groups[i].members), frozenset(groups[j].members)
                )
                pairs.append(PairLabel(i, j, rel))
        out.append(FrameDetection(t, partition, tuple(labels), tuple(pairs)))
    return out


def test_truth_to_detections_scores_zero():
    universes = {t: (1, 2, 3) for t in range(10)}
    dets = detections_from_truth(TRUTH, universes)
    rep = score(dets, TRUTH)
    assert rep.eder.value == 0.0
    assert rep.tfer.value == 0.0


def test_relabeling_invariance():
    remap = {1: 10, 2: 20, 3: 30}
    truth2 = ann([
        AnnotationRecord("sym", "Fight", 0, 9, members=(10, 20), group_id="g1"),
        AnnotationRecord("sym", "single", 0, 9, members=(30,), group_id="g3"),
        AnnotationRecord("asym", "Approach", 0, 9, groups=("g1", "g3")),
    ])
    dets1 = [perfect_frame(t) for t in range(9)]
    dets1.append(det(9, [(1, 2), (3,)], ["Fight", "single"], [PairLabel(0, 1, "Split")]))
    dets2 = [det(d.frame,
                 [tuple(remap[m] for m in g.members) for g in d.partition.groups],
                 list(d.group_labels),
                 list(d.pair_labels)) for d in dets1]
    r1 = score(dets1, TRUTH)
    r2 = score(dets2, truth2)
    assert r1.eder == r2.eder and r1.gcer == r2.gcer and r1.tfer == r2.tfer


def test_skipped_frames_reported_not_scored():
    dets = [perfect_frame(t) for t in range(9)]
    dets.append(FrameDetection(9, None, skipped="window unavailable"))
    rep = score(dets, TRUTH)
    assert rep.frames == 9
    assert rep.skipped == 1


def test_report_text_stable():
    dets = [perfect_frame(t) for t in range(10)]
    rep = score(dets, TRUTH)
    text = rep.format_text()
    assert text.splitlines()[0] == "frames 10"
    assert "gcer 0/10 = 0.0000" in text
    rows = rep.csv_rows()
    assert rows[0] == "activity,miss_num,miss_den,fa_num,fa_den"
    assert any(r.startswith("Fight,") for r in rows)
