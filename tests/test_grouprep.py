"""Group-representative tests: selection rules, thresholds, outlier handling."""

import numpy as np
import pytest

from groupact.grouprep import (
    GroupRepresentative,
    make_representative,
    member_log_scores,
    p_gr,
    sv_gr,
    v_gr,
)
from groupact.seqmodel import CorrelationEngine
from groupact.simgen import generate
from groupact.trackio import MbbSample, TrackSet

import oracles
from scenarios import approach_with_outlier, outlier_probe


def make_tracks(n_frames, positions):
    rows = []
    for p, pos in positions.items():
        for t in range(n_frames):
            x, y = pos(t) if callable(pos) else pos
            rows.append(MbbSample(t, p, float(x), float(y), 10.0, 24.0))
    return TrackSet(rows)


def test_singleton_group_all_kinds_coincide(bank):
    tracks = make_tracks(20, {4: lambda t: (t, 0.0)})
    engine = CorrelationEngine(bank, tracks)
    p = p_gr(engine, (4,), "single", 10)
    v = v_gr((4,))
    sv = sv_gr(engine, (4,), "single", 10, bank.tr)
    assert p.members == v.members == sv.members == (4,)


def test_identical_tracks_tie_breaks_to_smaller_id(bank):
    tracks = make_tracks(30, {7: lambda t: (t, 1.0), 5: lambda t: (t, 1.0)})
    p = p_gr(CorrelationEngine(bank, tracks), (5, 7), "WalkTogether", 20)
    assert p.members == (5,)


def test_scores_scale_invariance(bank):
    # argmax selection is invariant under a common additive log shift
    tracks, _ = generate(approach_with_outlier(seed=21))
    engine = CorrelationEngine(bank, tracks)
    scores = member_log_scores(engine, (1, 2, 3), "InGroup", 100)
    best = max(sorted(scores), key=lambda m: (scores[m], -m))
    shifted = {m: s + 123.0 for m, s in scores.items()}
    assert max(sorted(shifted), key=lambda m: (shifted[m], -m)) == best


@pytest.mark.parametrize("scenario, seed", [(approach_with_outlier, 21), (outlier_probe, 11)])
def test_member_scores_equal_the_per_member_reference(bank, scenario, seed):
    """One batched density per state gives each member's per-member score exactly."""
    tracks, _ = generate(scenario(seed=seed))
    engine = CorrelationEngine(bank, tracks)
    for t in range(20, 300, 20):
        for group in ((1, 2, 3), (1, 3), (2, 3)):
            for label in ("InGroup", "Fight", "WalkTogether"):
                got = member_log_scores(engine, group, label, t)
                assert got == oracles.member_log_scores(engine, group, label, t), (t, group, label)


def test_sv_three_equal_scores_keep_everyone(bank, monkeypatch):
    # each normalized score is 1/3 > 0.3, so the subset is the whole group
    import groupact.grouprep as gr

    monkeypatch.setattr(gr, "member_log_scores", lambda *a, **k: {1: -5.0, 2: -5.0, 3: -5.0})
    tracks = make_tracks(10, {1: (0, 0), 2: (3, 0), 3: (0, 3)})
    sv = gr.sv_gr(CorrelationEngine(bank, tracks), (1, 2, 3), "InGroup", 5, tr=0.3)
    v = gr.v_gr((1, 2, 3))
    assert sv.members == v.members == (1, 2, 3)
    assert not sv.fallback


def test_sv_four_equal_scores_fall_back_to_average(bank, monkeypatch):
    # 1/4 < 0.3 for every member: empty subset falls back to the full average
    import groupact.grouprep as gr

    monkeypatch.setattr(
        gr, "member_log_scores", lambda *a, **k: {1: -5.0, 2: -5.0, 3: -5.0, 4: -5.0}
    )
    tracks = make_tracks(10, {1: (0, 0), 2: (3, 0), 3: (0, 3), 4: (3, 3)})
    sv = gr.sv_gr(CorrelationEngine(bank, tracks), (1, 2, 3, 4), "InGroup", 5, tr=0.3)
    assert sv.members == (1, 2, 3, 4)
    assert sv.fallback


def test_sv_singleton_always_representative(bank):
    tracks = make_tracks(10, {6: (0.0, 0.0)})
    sv = sv_gr(CorrelationEngine(bank, tracks), (6,), "single", 5, tr=0.3)
    assert sv.members == (6,)
    assert not sv.fallback


def test_empty_group_rejected(bank):
    tracks = make_tracks(5, {1: (0, 0)})
    with pytest.raises(ValueError):
        p_gr(CorrelationEngine(bank, tracks), (), "Fight", 2)
    with pytest.raises(ValueError):
        v_gr(())


def test_outlier_probe_p0_strictly_smallest(bank):
    """The planted outlier draws strictly the least correlation from its peers."""
    tracks, _ = generate(outlier_probe(seed=11))
    engine = CorrelationEngine(bank, tracks)
    for t in range(20, 300, 20):
        profs = engine.profiles(
            [((j,), (i,)) for i in (1, 2, 3) for j in (1, 2, 3) if i != j], t
        )
        p0 = {
            i: sum(profs[((j,), (i,))][engine.column["InGroup"]] for j in (1, 2, 3) if j != i)
            for i in (1, 2, 3)
        }
        assert p0[3] < p0[1] and p0[3] < p0[2], f"frame {t}: {p0}"


def test_outlier_probe_selection_discards_outlier(bank):
    tracks, _ = generate(outlier_probe(seed=11))
    engine = CorrelationEngine(bank, tracks)
    frames = range(20, 300, 20)
    p_picks = [p_gr(engine, (1, 2, 3), "InGroup", t).members for t in frames]
    sv_sets = [sv_gr(engine, (1, 2, 3), "InGroup", t, bank.tr).members for t in frames]
    assert all(members != (3,) for members in p_picks)
    assert all(3 not in members for members in sv_sets)
    # the full-group average keeps the outlier by definition
    assert v_gr((1, 2, 3)).members == (1, 2, 3)


def test_make_representative_routes(bank):
    tracks = make_tracks(20, {1: (0, 0), 2: (3, 0)})
    engine = CorrelationEngine(bank, tracks)
    for kind, cls_kind in (("p", "p"), ("v", "v"), ("sv", "sv")):
        rep = make_representative(kind, engine, (1, 2), "InGroup", 10, bank.tr)
        assert rep.kind == cls_kind
    with pytest.raises(ValueError):
        make_representative("x", engine, (1, 2), "InGroup", 10, bank.tr)
