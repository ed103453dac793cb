"""Scenario generator tests: determinism, planted structure, ground truth."""

import io
import json

import numpy as np
import pytest

from groupact.simgen import (
    AgentSpec,
    EventSpec,
    ScenarioError,
    ScenarioSpec,
    generate,
    load_spec,
)
from groupact.trackio import write_tracks

from oracles import sample
from scenarios import EVAL_SCENARIOS, fig1_hierarchy, walk_together


def test_bit_determinism():
    spec = walk_together(seed=9)
    t1, a1 = generate(spec)
    t2, a2 = generate(spec)
    assert list(t1.iter_samples()) == list(t2.iter_samples())
    assert a1.records == a2.records


def test_stationary_single_agent():
    spec = ScenarioSpec(
        seed=1, duration=20,
        agents=(AgentSpec(1, start=(5.0, 7.0)),),
        events=(EventSpec("single", (0, 19), members=(1,), group_id="g1"),),
    )
    tracks, anns = generate(spec)
    xs = [sample(tracks, 1, t).x for t in range(20)]
    assert all(x == 5.0 for x in xs)  # zero noise: perfectly constant
    assert anns.records[0].label == "single"


def test_together_offset_delays_velocity_profile():
    spec = ScenarioSpec(
        seed=3, duration=60,
        agents=(AgentSpec(1, start=(0.0, 0.0)), AgentSpec(2, start=(0.0, 5.0))),
        events=(
            EventSpec(
                "WalkTogether", (0, 59), members=(1, 2), group_id="g1",
                params={"velocity": [1.0, 0.0], "gait_amp": 0.5, "gait_period": 10.0,
                        "offsets": {"2": 3}},
            ),
        ),
    )
    tracks, _ = generate(spec)
    v1 = np.array([sample(tracks, 1, t).x - sample(tracks, 1, t - 1).x for t in range(1, 60)])
    v2 = np.array([sample(tracks, 2, t).x - sample(tracks, 2, t - 1).x for t in range(1, 60)])
    # the second agent's profile is the first's delayed by three frames
    assert np.allclose(v2[3:], v1[:-3], atol=1e-9)


def test_fight_triggers_body_size_change():
    from groupact.features import body_size_change

    from scenarios import fight

    tracks, _ = generate(fight(seed=2))
    changes = [body_size_change(tracks, 1, t) for t in range(5, 50)]
    assert np.mean(np.array(changes) > 0.1) > 0.9


def test_fig1_scenario_has_both_levels():
    _, anns = generate(fig1_hierarchy(seed=0))
    kinds = {(r.kind, r.label) for r in anns.records}
    assert ("sym", "Fight") in kinds
    assert ("asym", "Approach") in kinds
    fight_rec = [r for r in anns.records if r.label == "Fight"][0]
    assert len(fight_rec.members) == 3


def test_annotations_partition_agents_every_frame():
    from groupact.metrics import truth_frame

    for name, build in EVAL_SCENARIOS.items():
        tracks, anns = generate(build(seed=4))
        for t in (10, 150, 290):
            universe = [p for p in tracks.persons if tracks.has(p, t)]
            tf = truth_frame(anns, t, universe)
            covered = sorted(m for ms, _ in tf.groups for m in ms)
            assert covered == sorted(universe), name


def test_infeasible_spec_conflicting_motion():
    spec = ScenarioSpec(
        seed=0, duration=30,
        agents=(AgentSpec(1, start=(0.0, 0.0)), AgentSpec(2, start=(5.0, 0.0))),
        events=(
            EventSpec("WalkTogether", (0, 20), members=(1, 2), group_id="a",
                      params={"velocity": [1, 0]}),
            EventSpec("Fight", (10, 25), members=(1, 2), group_id="b"),
        ),
    )
    with pytest.raises(ScenarioError, match="conflicting motion"):
        generate(spec)


def test_spec_validation_errors():
    with pytest.raises(ScenarioError):
        ScenarioSpec(seed=0, duration=10, agents=(AgentSpec(1, (0, 0)), AgentSpec(1, (1, 1))))
    with pytest.raises(ScenarioError):
        ScenarioSpec(
            seed=0, duration=10, agents=(AgentSpec(1, (0, 0)),),
            events=(EventSpec("Fight", (0, 20), members=(1,), group_id="g"),),
        )
    with pytest.raises(ScenarioError):
        ScenarioSpec(
            seed=0, duration=10, agents=(AgentSpec(1, (0, 0)),),
            events=(EventSpec("Fight", (0, 5), members=(9,), group_id="g"),),
        )


def test_spec_json_round_trip():
    spec = walk_together(seed=5)
    text = json.dumps(spec.to_payload())
    again = load_spec(io.StringIO(text))
    assert again == spec
    with pytest.raises(ScenarioError):
        load_spec(io.StringIO("{not json"))
    with pytest.raises(ScenarioError):
        load_spec(io.StringIO('{"seed": 1}'))


@pytest.mark.parametrize("path, value", [
    (("seed",), 1.0), (("duration",), "60"), (("agents", 0, "agent"), True),
    (("events", 0, "frames"), [0.5, 20]), (("events", 0, "members"), [1, 2.0]),
    (("events", 0, "members"), [1, 1]),
], ids=["seed-float", "duration-string", "agent-bool", "event-frame-float", "event-member-float",
        "repeated-event-member"])
def test_spec_integer_fields_are_integers(path, value):
    payload = walk_together(seed=5).to_payload()
    *parents, key = path
    target = payload
    for step in parents:
        target = target[step]
    target[key] = value
    with pytest.raises(ScenarioError, match="^bad scenario structure: "):
        load_spec(io.StringIO(json.dumps(payload)))


def test_generated_tracks_survive_csv_round_trip():
    from groupact.trackio import parse_tracks

    tracks, _ = generate(walk_together(seed=6))
    buf = io.StringIO()
    write_tracks(tracks, buf)
    again = parse_tracks(buf.getvalue())
    assert len(again) == len(tracks)
    s1 = sample(tracks, 1, 100)
    s2 = sample(again, 1, 100)
    assert s1 == s2  # exact float round-trip
