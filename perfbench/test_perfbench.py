"""Tests of the benchmark itself: inputs, span arithmetic, wrapper hygiene.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import pytest

import tracing
import workloads as wl
from groupact import grad, metrics, seqmodel, simgen, trackio


def test_tiler_keeps_ids_disjoint_and_namespaces_groups():
    scenes = [s for _, s in wl.tile_specs()]
    tiled = wl.tile(scenes, seed=5)
    ids = [a.agent for a in tiled.agents]
    assert len(ids) == len(set(ids)) == sum(len(s.agents) for s in scenes) == 37
    for k, scene in enumerate(scenes):
        off = wl.ID_STRIDE * (k + 1)
        own = {a.agent + off for a in scene.agents}
        assert own <= set(ids)
        mine = [e for e in tiled.events if set(e.members) & own or
                (e.groups and e.groups[0].startswith(f"s{k}-"))]
        assert len(mine) == len(scene.events)
        for e in mine:
            assert set(e.members) <= own
            if e.group_id is not None:
                assert e.group_id.startswith(f"s{k}-")


@pytest.mark.parametrize("t", [0, 57, 150, 299])
def test_tiled_truth_is_exact_per_scene(t):
    scenes = wl.tile_specs()
    _, anns = simgen.generate(wl.tile([s for _, s in scenes], seed=3))
    everyone = [a.agent for a in wl.tile([s for _, s in scenes], seed=3).agents]
    truth = metrics.truth_frame(anns, t, everyone)
    tiled_groups = {ms: lbl for ms, lbl in truth.groups}
    for k, (_, scene) in enumerate(scenes):
        off = wl.ID_STRIDE * (k + 1)
        _, own = simgen.generate(scene)
        alone = metrics.truth_frame(own, t, [a.agent for a in scene.agents])
        for ms, lbl in alone.groups:
            assert tiled_groups[frozenset(m + off for m in ms)] == lbl
        for key, lbl in alone.pair_labels.items():
            a, b = (frozenset(m + off for m in ms) for ms in key)
            assert truth.relation(a, b) == lbl
    # groups never span scenes
    for ms in tiled_groups:
        assert len({m // wl.ID_STRIDE for m in ms}) == 1


def test_occlusion_is_seeded_and_spread_evenly():
    tracks, _ = simgen.generate(wl.crowd_spec(0))
    a = wl.occlude(tracks, seed=4)
    b = wl.occlude(tracks, seed=4)
    c = wl.occlude(tracks, seed=5)
    assert list(a.iter_samples()) == list(b.iter_samples())
    assert list(a.iter_samples()) != list(c.iter_samples())
    dropped = 1 - len(a) / len(tracks)
    assert 0.04 < dropped < 0.06
    lo, hi = tracks.frame_range
    missing = [sum(not a.has(p, f) for p in a.persons) for f in range(lo, hi + 1)]
    assert max(missing) <= 3  # 37 persons x 3 frames over 58 gap starts per 60 frames


def test_self_time_on_a_synthetic_span_tree():
    # root 0..10 holds a 2..6 child (itself holding 3..4) and an 7..9 child
    spans = [
        ("grad.run", "grad", 0.0, 10.0, -1, 1),
        ("seqmodel.profiles", "seqmodel", 2.0, 6.0, 0, 1),
        ("features.win", "features", 3.0, 4.0, 1, 1),
        ("clustering.seed", "clustering", 7.0, 9.0, 0, 1),
        ("features.win", "features", 11.0, 11.5, -1, None),
    ]
    by_layer, by_name = tracing.self_times(spans)
    assert by_layer == {"grad": 4.0, "seqmodel": 3.0, "features": 1.5, "clustering": 2.0}
    assert by_name["features.win"] == 1.5
    assert sum(by_layer.values()) == pytest.approx(10.5)  # the two root spans


def _namespaces():
    owners = {id(owner): owner for owner, _, _ in tracing.entry_points()}
    return {key: dict(vars(owner)) for key, owner in owners.items()}


def test_install_and_remove_leave_every_attribute_identical():
    before = _namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, _ in tracer.points:
            assert vars(owner)[attr] is not before[id(owner)][attr]
    finally:
        tracer.remove()
    after = _namespaces()
    assert before.keys() == after.keys()
    for key, names in before.items():
        assert names.keys() == after[key].keys()
        for name, value in names.items():
            assert after[key][name] is value, name


def test_install_twice_is_refused():
    tracer = tracing.Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()
    assert not tracer._saved


def _fight():
    with open(wl.DATA / "bank.json") as fp:
        bank = trackio.load_model(fp)
    _, spec = wl.scene_specs(0)[2]  # fight: a real group and a single
    tracks, _ = simgen.generate(spec)
    return bank, tracks


def test_profile_lookups_count_once_and_hit_when_cached():
    bank, tracks = _fight()
    a, b, c = tracks.persons[:3]
    engine = seqmodel.CorrelationEngine(bank, tracks)
    tracer = tracing.Tracer()
    with tracer:
        engine.profiles([((a,), (b,)), ((b,), (a,))], 40)  # two computed
        engine.profile((a,), (b,), 40)  # a hit
        engine.profile((a,), (c,), 40)  # a miss, computed through profiles
        engine.profiles([((a,), (c,)), ((c,), (a,))], 40)  # one hit, one computed
    counts = tracer.counts
    assert counts["seqmodel.profile_calls"] == 4
    assert counts["seqmodel.items_requested"] == 6
    assert counts["seqmodel.items_computed"] == 4


def test_nested_spans_catch_calls_made_inside_the_program():
    bank, tracks = _fight()
    config = grad.PipelineConfig.from_bank(bank)
    engine = seqmodel.CorrelationEngine(bank, tracks)
    plain = grad.run_pipeline(bank, tracks, config, frames=[40], engine=engine)
    tracer = tracing.Tracer()
    with tracer:
        tracer.frame = 40
        engine = seqmodel.CorrelationEngine(bank, tracks)
        traced = grad.run_pipeline(bank, tracks, config, frames=[40], engine=engine)
    assert traced == plain
    names = [s[0] for s in tracer.spans]
    assert names[0] == "grad.run_pipeline" and tracer.spans[0][4] == -1
    assert all(s[4] >= 0 for s in tracer.spans[1:])  # everything nests under it
    assert all(s[5] == 40 for s in tracer.spans)
    for needed in ("seqmodel.profiles", "features.pair_feature_windows",
                   "clustering.detect_seeds", "clustering.merge_seeds",
                   "clustering.assign_remaining", "grouprep.make_representative",
                   "grad.recognize_symmetric", "grad.recognize_intergroup",
                   "gmm.log_density", "features.entity_average_speed"):
        assert needed in names, needed
    parents = {s[0]: tracer.spans[s[4]][0] for s in tracer.spans if s[4] >= 0}
    assert parents["features.pair_feature_windows"] == "seqmodel.profiles"
    assert tracer.counts["seqmodel.items_computed"] == names.count("features.pair_feature_windows")
    assert tracer.counts["grad.groups"] == len(traced[0].partition.groups)

