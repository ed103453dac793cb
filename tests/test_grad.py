"""Pipeline tests: recognition paths, majority vote, structure, determinism."""

import copy
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from groupact.clustering import GroupAssignment
from groupact.features import as_entity
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
from groupact.seqmodel import CorrelationEngine
from groupact.simgen import generate
from groupact.trackio import MbbSample, TrackSet, parse_tracks, write_tracks

from scenarios import EVAL_SCENARIOS, WARMUP, fig1_hierarchy, ragged_tracks, walk_together


class StubEngine:
    """Duck-typed engine returning scripted profiles for vote-rule tests."""

    def __init__(self, bank, table):
        self.bank = bank
        self.labels = bank.labels()
        self.column = {l: a for a, l in enumerate(self.labels)}
        self.table = table  # (subject, target) -> {label: value}

    def profiles(self, items, t):
        out = {}
        for a, b in items:
            key = (as_entity(a), as_entity(b))
            values = self.table.get(key)
            out[key] = None if values is None else np.array([values[l] for l in self.labels])
        return out

    def profile(self, subject, target, t):
        key = (as_entity(subject), as_entity(target))
        return self.profiles([key], t)[key]


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
    engine = StubEngine(bank, table)
    pl = majority_vote_intergroup(engine, a, b, 10)
    assert pl == PairLabel(0, 1, "Approach")


def test_majority_vote_two_to_one(bank):
    a = ctx(0, (1, 2, 3), "InGroup", (1, 2, 3), 0.1)
    b = ctx(1, (5,), "single", (5,), 2.0)
    table = {
        ((5,), (1,)): vote_values("Approach"),
        ((5,), (2,)): vote_values("Approach"),
        ((5,), (3,)): vote_values("Ignore"),
    }
    pl = majority_vote_intergroup(StubEngine(bank, table), a, b, 10)
    assert pl.label == "Approach"


def test_majority_vote_tie_breaks_on_summed_correlation(bank):
    a = ctx(0, (1, 2), "InGroup", (1, 2), 0.1)
    b = ctx(1, (5,), "single", (5,), 2.0)
    table = {
        ((5,), (1,)): vote_values("Approach", v=0.6),
        ((5,), (2,)): vote_values("Chase", v=0.9),  # higher summed correlation
    }
    pl = majority_vote_intergroup(StubEngine(bank, table), a, b, 10)
    assert pl.label == "Chase"
    # equal sums fall back to the lexicographically smaller label
    table2 = {
        ((5,), (1,)): vote_values("Chase", v=0.8),
        ((5,), (2,)): vote_values("Approach", v=0.8),
    }
    pl2 = majority_vote_intergroup(StubEngine(bank, table2), a, b, 10)
    assert pl2.label == "Approach"


def test_intergroup_orders_by_speed_then_index(bank):
    slow = ctx(0, (1, 2), "InGroup", (1, 2), 0.1)
    fast = ctx(1, (5,), "single", (5,), 2.0)
    table = {
        ((5,), (1, 2)): vote_values("Approach"),
        ((5,), (1,)): vote_values("Approach"),
        ((5,), (2,)): vote_values("Approach"),
    }
    pl = recognize_intergroup(StubEngine(bank, table), fast, slow, 10)
    assert (pl.a, pl.b) == (0, 1)  # slower group always first
    # ties on speed: smaller index first
    g0 = ctx(0, (1,), "single", (1,), 1.0)
    g1 = ctx(1, (2,), "single", (2,), 1.0)
    table2 = {((2,), (1,)): vote_values("Ignore")}
    pl2 = recognize_intergroup(StubEngine(bank, table2), g1, g0, 10)
    assert (pl2.a, pl2.b) == (0, 1)


def test_recognize_symmetric_variants(bank):
    tracks, _ = generate(walk_together(seed=31))
    engine = CorrelationEngine(bank, tracks)
    t = 60
    singleton = GroupAssignment((8,), (), (), None)
    assert recognize_symmetric(engine, singleton, t, 1) == "single"
    assert recognize_symmetric(engine, singleton, t, 2) == "single"
    seeded = GroupAssignment((1, 2, 3), (1, 2), (3,), "WalkTogether")
    assert recognize_symmetric(engine, seeded, t, 1) == "WalkTogether"
    # variant 2 recomputes from group features plus the correlation prior
    assert recognize_symmetric(engine, seeded, t, 2) == "WalkTogether"
    # variant 1 without a seed label falls back to the strongest grouping label
    unlabeled = GroupAssignment((1, 2, 3), (1,), (2, 3), None)
    assert recognize_symmetric(engine, unlabeled, t, 1) == "WalkTogether"


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


def test_engine_cache_holds_only_the_current_frame(bank):
    tracks, _ = generate(fig1_hierarchy(seed=4))
    cfg = PipelineConfig.from_bank(bank)
    frames = range(60, 66)
    engine = CorrelationEngine(bank, tracks, window=cfg.window, dt=cfg.dt)
    stepped = []
    for t in frames:
        stepped += run_pipeline(bank, tracks, cfg, frames=[t], engine=engine)
        assert engine._cache and engine._t == t
    assert stepped == run_pipeline(bank, tracks, cfg, frames=frames)
    # a frame visited again is recomputed, to the same detections
    assert run_pipeline(bank, tracks, cfg, frames=[60], engine=engine) == stepped[:1]


def test_engine_memory_stays_flat_over_a_long_run(frozen_bank):
    """Frames 1-60 on one engine: the heap after frame 60 is within 1 MB of that after frame 30."""
    tracks, _ = generate(EVAL_SCENARIOS["walk_together"](seed=200))
    cfg = PipelineConfig.from_bank(frozen_bank)
    engine = CorrelationEngine(frozen_bank, tracks, window=cfg.window, dt=cfg.dt)
    current = {}
    tracemalloc.start()
    try:
        for t in range(1, 61):
            run_pipeline(frozen_bank, tracks, cfg, frames=[t], engine=engine)
            current[t] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert abs(current[60] - current[30]) <= 1 << 20


def test_run_pipeline_rejects_an_engine_built_for_another_run(bank):
    tracks, _ = generate(walk_together(seed=31))
    cfg = PipelineConfig.from_bank(bank, window=6, dt=2)
    frames = range(40, 46)
    mismatched = (
        CorrelationEngine(bank, tracks),  # the bank's window/dt, not the config's
        CorrelationEngine(bank, tracks, window=6, dt=3),
        CorrelationEngine(copy.copy(bank), tracks, window=6, dt=2),
        CorrelationEngine(bank, TrackSet(list(tracks.iter_samples())), window=6, dt=2),
    )
    for engine in mismatched:
        with pytest.raises(ValueError):
            run_pipeline(bank, tracks, cfg, frames=frames, engine=engine)
    engine = CorrelationEngine(bank, tracks, window=6, dt=2)
    assert run_pipeline(bank, tracks, cfg, frames=frames, engine=engine) == run_pipeline(
        bank, tracks, cfg, frames=frames
    )


@settings(max_examples=30, deadline=None)
@given(ragged_tracks())
def test_pipeline_partitions_or_skips_every_frame_of_ragged_tracks(bank, drawn):
    buf = io.StringIO()
    write_tracks(drawn, buf)
    tracks = parse_tracks(buf.getvalue())
    dets = run_pipeline(bank, tracks)
    lo, hi = tracks.frame_range
    assert [d.frame for d in dets] == list(range(lo + 1, hi + 1))
    for d in dets:
        if d.partition is None:
            assert d.skipped
        else:
            assert d.partition.persons == tracks.observable_persons(d.frame)
            covered = sorted(m for g in d.partition.groups for m in g.members)
            assert covered == list(d.partition.persons)


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
