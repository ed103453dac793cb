"""Pipeline tests: recognition paths, majority vote, structure, determinism."""

import io

import numpy as np
import pytest

from groupact.clustering import GroupAssignment
from groupact.grad import (
    FrameDetection,
    GroupContext,
    PairLabel,
    PipelineConfig,
    majority_vote_intergroup,
    read_detections,
    recognize_intergroup,
    recognize_symmetric,
    run_pipeline,
    write_detections,
)
from groupact.grouprep import GroupRepresentative
from groupact.seqmodel import CorrelationEngine, CorrelationProfile
from groupact.simgen import generate
from groupact.trackio import MbbSample, TrackSet, parse_tracks

from scenarios import WARMUP, fig1_hierarchy, walk_together


class StubEngine:
    """Duck-typed engine returning scripted profiles for vote-rule tests."""

    def __init__(self, table):
        self.table = table  # (subject, target) -> {label: value}

    def profile(self, subject, target, t):
        from groupact.features import as_entity

        key = (as_entity(subject), as_entity(target))
        if key not in self.table:
            return None
        values = self.table[key]
        label = max(sorted(values), key=lambda l: values[l])
        return CorrelationProfile(key[0], key[1], t, values, label)


def ctx(index, members, label, rep_members, speed):
    rep = GroupRepresentative("v", tuple(members), tuple(rep_members))
    return GroupContext(index, tuple(members), label, rep, speed)


def vote_values(label, v=0.9, labels=("Approach", "Chase", "Ignore", "Split")):
    rest = (1.0 - v) / (len(labels) + 3)
    out = {l: rest for l in ("Fight", "InGroup", "RunTogether", "WalkTogether")}
    out.update({l: (v if l == label else rest) for l in labels})
    return out


def test_majority_vote_unanimous(bank):
    a = ctx(0, (1, 2), "InGroup", (1, 2), 0.1)
    b = ctx(1, (5,), "single", (5,), 2.0)
    table = {((5,), (m,)): vote_values("Approach") for m in (1, 2)}
    engine = StubEngine(table)
    pl = majority_vote_intergroup(bank, None, a, b, 10, engine)
    assert pl == PairLabel(0, 1, "Approach")


def test_majority_vote_two_to_one(bank):
    a = ctx(0, (1, 2, 3), "InGroup", (1, 2, 3), 0.1)
    b = ctx(1, (5,), "single", (5,), 2.0)
    table = {
        ((5,), (1,)): vote_values("Approach"),
        ((5,), (2,)): vote_values("Approach"),
        ((5,), (3,)): vote_values("Ignore"),
    }
    pl = majority_vote_intergroup(bank, None, a, b, 10, StubEngine(table))
    assert pl.label == "Approach"


def test_majority_vote_tie_breaks_on_summed_correlation(bank):
    a = ctx(0, (1, 2), "InGroup", (1, 2), 0.1)
    b = ctx(1, (5,), "single", (5,), 2.0)
    table = {
        ((5,), (1,)): vote_values("Approach", v=0.6),
        ((5,), (2,)): vote_values("Chase", v=0.9),  # higher summed correlation
    }
    pl = majority_vote_intergroup(bank, None, a, b, 10, StubEngine(table))
    assert pl.label == "Chase"
    # equal sums fall back to the lexicographically smaller label
    table2 = {
        ((5,), (1,)): vote_values("Chase", v=0.8),
        ((5,), (2,)): vote_values("Approach", v=0.8),
    }
    pl2 = majority_vote_intergroup(bank, None, a, b, 10, StubEngine(table2))
    assert pl2.label == "Approach"


def test_intergroup_orders_by_speed_then_index(bank):
    slow = ctx(0, (1, 2), "InGroup", (1, 2), 0.1)
    fast = ctx(1, (5,), "single", (5,), 2.0)
    table = {
        ((5,), (1, 2)): vote_values("Approach"),
        ((5,), (1,)): vote_values("Approach"),
        ((5,), (2,)): vote_values("Approach"),
    }
    pl = recognize_intergroup(bank, None, fast, slow, 10, StubEngine(table))
    assert (pl.a, pl.b) == (0, 1)  # slower group always first
    # ties on speed: smaller index first
    g0 = ctx(0, (1,), "single", (1,), 1.0)
    g1 = ctx(1, (2,), "single", (2,), 1.0)
    table2 = {((2,), (1,)): vote_values("Ignore")}
    pl2 = recognize_intergroup(bank, None, g1, g0, 10, StubEngine(table2))
    assert (pl2.a, pl2.b) == (0, 1)


def test_recognize_symmetric_variants(bank):
    tracks, _ = generate(walk_together(seed=31))
    engine = CorrelationEngine(bank, tracks)
    t = 60
    singleton = GroupAssignment((8,), (), (), None)
    assert recognize_symmetric(bank, tracks, singleton, t, 1, engine) == "single"
    assert recognize_symmetric(bank, tracks, singleton, t, 2, engine) == "single"
    seeded = GroupAssignment((1, 2, 3), (1, 2), (3,), "WalkTogether")
    assert recognize_symmetric(bank, tracks, seeded, t, 1, engine) == "WalkTogether"
    # variant 2 recomputes from group features plus the correlation prior
    assert recognize_symmetric(bank, tracks, seeded, t, 2, engine) == "WalkTogether"
    # variant 1 without a seed label falls back to the strongest grouping label
    unlabeled = GroupAssignment((1, 2, 3), (1,), (2, 3), None)
    assert recognize_symmetric(bank, tracks, unlabeled, t, 1, engine) == "WalkTogether"


def test_fixed_length_representative_streams(bank):
    """Two representative streams go in, whatever the group sizes are."""
    from groupact import features as feats

    rows = []
    for t in range(30):
        for p in range(1, 8):
            rows.append(MbbSample(t, p, float(p * 3 + 0.1 * t), float(p), 10.0, 24.0))
    tracks = TrackSet(rows)
    shapes = set()
    for size in range(1, 7):
        members = tuple(range(1, size + 1))
        win = feats.pair_feature_windows(tracks, members, (7,), 20, 12)
        assert win is not None
        fa, fb = win
        shapes.add((fa.shape, fb.shape))
    assert len(shapes) == 1  # input size independent of member count


def test_pipeline_empty_and_single(bank):
    assert run_pipeline(bank, TrackSet([])) == []
    rows = [MbbSample(t, 1, float(t), 0.0, 10.0, 24.0) for t in range(25)]
    dets = run_pipeline(bank, TrackSet(rows), PipelineConfig.from_bank(bank))
    assert all(d.partition is not None for d in dets)
    for d in dets:
        assert [g.members for g in d.partition.groups] == [(1,)]
        assert d.group_labels == ("single",)
        assert d.pair_labels == ()


def test_pipeline_fig1_hierarchy_levels(bank):
    tracks, _ = generate(fig1_hierarchy(seed=2))
    dets = run_pipeline(bank, tracks, PipelineConfig.from_bank(bank),
                        frames=range(100, 140))
    for d in dets:
        sets = {g.members: d.group_labels[i] for i, g in enumerate(d.partition.groups)}
        assert sets.get((1, 2, 3)) == "Fight"
        assert sets.get((5,)) == "single"
        assert len(d.pair_labels) == 1
        assert d.pair_labels[0].label == "Approach"


def test_pipeline_deterministic(bank):
    tracks, _ = generate(walk_together(seed=13))
    cfg = PipelineConfig.from_bank(bank)
    frames = range(WARMUP, 40)
    d1 = run_pipeline(bank, tracks, cfg, frames=frames)
    d2 = run_pipeline(bank, tracks, cfg, frames=frames)
    assert d1 == d2


def test_detections_round_trip(bank):
    tracks, _ = generate(walk_together(seed=13))
    dets = run_pipeline(bank, tracks, PipelineConfig.from_bank(bank),
                        frames=range(WARMUP, 30))
    dets.append(FrameDetection(999, None, skipped="because"))
    buf = io.StringIO()
    write_detections(dets, buf)
    buf.seek(0)
    again = read_detections(buf)
    assert len(again) == len(dets)
    for a, b in zip(dets, again):
        assert a.frame == b.frame
        assert a.skipped == b.skipped
        if a.partition is not None:
            assert [g.members for g in a.partition.groups] == [
                g.members for g in b.partition.groups
            ]
            assert a.group_labels == b.group_labels
            assert a.pair_labels == b.pair_labels


def test_smoothing_majority_filter(bank):
    tracks, _ = generate(walk_together(seed=13))
    cfg = PipelineConfig.from_bank(bank, smoothing=True)
    frames = range(WARMUP, 40)
    smoothed = run_pipeline(bank, tracks, cfg, frames=frames)
    plain = run_pipeline(bank, tracks, PipelineConfig.from_bank(bank), frames=frames)
    # on a stable scenario the filter changes nothing
    assert [d.group_labels for d in smoothed] == [d.group_labels for d in plain]


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(gr="q")
    with pytest.raises(ValueError):
        PipelineConfig(variant=3)
    with pytest.raises(ValueError):
        PipelineConfig(to=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(baseline="median")
