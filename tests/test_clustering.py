"""Clustering tests: seed conditions, merging rules, assignment, partition laws."""

from types import SimpleNamespace

import numpy as np
import pytest

from groupact.clustering import (
    ClusterSeed,
    GroupAssignment,
    Partition,
    assign_remaining,
    detect_seeds,
    merge_seeds,
)
from groupact.seqmodel import CorrelationEngine
from groupact.taxonomy import default_taxonomy
from groupact.trackio import MbbSample, TrackSet

from scenarios import WARMUP, fight, walk_together
from groupact.simgen import generate


# what merge_seeds reads of an engine: the profile columns and the taxonomy
ENGINE = SimpleNamespace(
    labels=default_taxonomy().modelable_labels(), bank=SimpleNamespace(taxonomy=default_taxonomy())
)


def profile_map(labels: dict[tuple, str], value: float = 0.99):
    """Hand-built correlation profiles: labels[(i, j)] -> winning label."""
    rest = (1.0 - value) / (len(ENGINE.labels) - 1)
    return {
        ((i,), (j,)): np.array([value if l == lbl else rest for l in ENGINE.labels])
        for (i, j), lbl in labels.items()
    }


def test_merge_two_pair_seeds_all_agree():
    seeds = [
        ClusterSeed((1, 2), "pair", "Fight", (), 0.99),
        ClusterSeed((3, 4), "pair", "Fight", (), 0.99),
    ]
    labels = {(i, j): "Fight" for i in (1, 2, 3, 4) for j in (1, 2, 3, 4) if i != j}
    merged = merge_seeds(seeds, ENGINE, profile_map(labels))
    assert len(merged) == 1
    assert merged[0].members == (1, 2, 3, 4)
    assert merged[0].label == "Fight"
    assert merged[0].kind == "merged"


def test_no_merge_on_label_mismatch():
    seeds = [
        ClusterSeed((1, 2), "pair", "WalkTogether", (), 0.99),
        ClusterSeed((3,), "active", None, (3,), 0.5),
    ]
    labels = {(i, j): "WalkTogether" for i in (1, 2) for j in (1, 2) if i != j}
    labels.update({(1, 3): "Ignore", (3, 1): "Ignore", (2, 3): "Ignore", (3, 2): "Ignore"})
    merged = merge_seeds(seeds, ENGINE, profile_map(labels))
    assert sorted(s.members for s in merged) == [(1, 2), (3,)]


def test_active_seed_merges_into_pair_on_agreement():
    # the three-way example: c joins (a, b) when the labels agree
    seeds = [
        ClusterSeed((1, 2), "pair", "Fight", (), 0.99),
        ClusterSeed((3,), "active", None, (3,), 0.4),
    ]
    labels = {(i, j): "Fight" for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    merged = merge_seeds(seeds, ENGINE, profile_map(labels))
    assert len(merged) == 1
    assert merged[0].members == (1, 2, 3)
    assert merged[0].active_members == (3,)


def test_chain_disagreement_blocks_triple_merge():
    # (1,2) and (2,3) agree pairwise with their own members, but 1-3 disagree
    seeds = [
        ClusterSeed((1, 2), "pair", "Fight", (), 0.99),
        ClusterSeed((2, 3), "pair", "Fight", (), 0.97),
    ]
    labels = {(i, j): "Fight" for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    labels[(1, 3)] = "Ignore"
    merged = merge_seeds(seeds, ENGINE, profile_map(labels))
    # all-pairs agreement fails; the stronger pair keeps the shared member
    assert merged[0].members == (1, 2)
    assert all(3 not in s.members or len(s.members) == 1 for s in merged)
    # the demoted remnant is not an active person, so it is dropped entirely
    assert sorted(s.members for s in merged) == [(1, 2)]


def test_overlap_resolution_keeps_active_remnant():
    seeds = [
        ClusterSeed((1, 2), "pair", "Fight", (), 0.99),
        ClusterSeed((2, 3), "pair", "WalkTogether", (), 0.97),
        ClusterSeed((3,), "active", None, (3,), 0.2),
    ]
    labels = {(i, j): "Ignore" for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    labels.update({(1, 2): "Fight", (2, 1): "Fight", (2, 3): "WalkTogether", (3, 2): "WalkTogether"})
    merged = merge_seeds(seeds, ENGINE, profile_map(labels))
    members = sorted(s.members for s in merged)
    assert (1, 2) in members
    assert (3,) in members  # active remnant survives


def make_tracks(n_frames, positions, boxes=None):
    rows = []
    for p, pos in positions.items():
        for t in range(n_frames):
            w, h = (boxes or {}).get(p, (10.0, 24.0))
            if callable(w):
                w = w(t)
            if callable(h):
                h = h(t)
            x, y = pos(t) if callable(pos) else pos
            rows.append(MbbSample(t, p, float(x), float(y), float(w), float(h)))
    return TrackSet(rows)


def seeds_at(bank, tracks, t, tc, to):
    """detect_seeds given the person-pair profiles the pipeline passes it."""
    engine = CorrelationEngine(bank, tracks)
    persons = tracks.observable_persons(t)
    profiles = engine.profiles([((a,), (b,)) for a in persons for b in persons if a != b], t)
    return detect_seeds(engine, profiles, t, tc, to)


def test_detect_seeds_empty_when_nothing_fires(bank):
    # far-apart stationary people with constant boxes: mutual labels are
    # non-grouping and nobody's body size changes
    tracks = make_tracks(
        30, {1: (0.0, 0.0), 2: (200.0, 10.0), 3: (30.0, -250.0)}
    )
    seeds = seeds_at(bank, tracks, 20, bank.tc, bank.to)
    assert seeds == []


def test_detect_seeds_active_person(bank):
    grow = lambda t: 40.0 * (1.3 if t % 2 else 1.0)
    tracks = make_tracks(
        20, {1: (0.0, 0.0), 2: (300.0, 0.0)}, boxes={1: (grow, 90.0)}
    )
    seeds = seeds_at(bank, tracks, 10, tc=0.1, to=0.95)
    actives = [s for s in seeds if s.kind == "active"]
    assert [s.members for s in actives] == [(1,)]
    assert actives[0].strength > 0.1


def test_detect_seeds_pair_from_planted_scenario(bank):
    tracks, _ = generate(walk_together(seed=77))
    t = 60
    seeds = seeds_at(bank, tracks, t, bank.tc, bank.to)
    pair_members = {s.members for s in seeds if s.kind == "pair"}
    assert any(set(m) <= {1, 2, 3} for m in pair_members)
    for s in seeds:
        if s.kind == "pair":
            assert s.label == "WalkTogether"
            assert s.strength > 0.95


def test_assign_remaining_no_seeds_all_single(bank):
    tracks = make_tracks(30, {1: (0.0, 0.0), 2: (200.0, 10.0)})
    partition = assign_remaining(CorrelationEngine(bank, tracks), 20, [])
    assert [g.members for g in partition.groups] == [(1,), (2,)]
    assert all(g.label == "single" for g in partition.groups)


def test_assign_remaining_joins_best_seed(bank):
    tracks, _ = generate(walk_together(seed=78))
    t = 80
    engine = CorrelationEngine(bank, tracks)
    seeds = [ClusterSeed((1, 2), "pair", "WalkTogether", (), 0.99)]
    partition = assign_remaining(engine, t, seeds)
    g0 = partition.groups[partition.group_of(3)]
    assert g0.members == (1, 2, 3)
    assert 3 in g0.assigned_members
    # far-away walkers stay single
    assert partition.groups[partition.group_of(8)].members == (8,)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(0, (1, 2), (GroupAssignment((1,), (1,), (), None),))
    with pytest.raises(ValueError):
        Partition(
            0, (1, 2),
            (GroupAssignment((1, 2), (), (), None), GroupAssignment((2,), (), (), None)),
        )


def test_pipeline_partition_is_true_partition(bank):
    from groupact import grad

    tracks, _ = generate(fight(seed=5))
    dets = grad.run_pipeline(
        bank, tracks, grad.PipelineConfig.from_bank(bank), frames=range(WARMUP, 60)
    )
    for d in dets:
        assert d.partition is not None
        covered = sorted(m for g in d.partition.groups for m in g.members)
        assert covered == sorted(tracks.observable_persons(d.frame))


def test_order_preserving_relabeling_equivariance(bank):
    from groupact import grad

    tracks, _ = generate(fight(seed=9))
    remap = {p: p * 10 for p in tracks.persons}
    relabeled = TrackSet(
        [MbbSample(s.frame, remap[s.person], s.x, s.y, s.w, s.h) for s in tracks.iter_samples()]
    )
    frames = range(WARMUP, 40)
    cfg = grad.PipelineConfig.from_bank(bank)
    d1 = grad.run_pipeline(bank, tracks, cfg, frames=frames)
    d2 = grad.run_pipeline(bank, relabeled, cfg, frames=frames)
    for a, b in zip(d1, d2):
        got = [tuple(remap[m] for m in g.members) for g in a.partition.groups]
        want = [g.members for g in b.partition.groups]
        assert got == want
        assert a.group_labels == b.group_labels
        assert a.pair_labels == b.pair_labels
