"""Shared synthetic scenarios for integration and acceptance tests.

Six planted-event scenarios (one per headline activity), plus variants with
outliers and stream asynchrony.  Training uses the same generators under
shifted seeds so evaluation never sees its own noise draws.
"""

from __future__ import annotations

from hypothesis import strategies as st

from groupact.simgen import AgentSpec, EventSpec, ScenarioSpec
from groupact.trackio import COORD_MAX, SIZE_MAX, SIZE_MIN, AnnotationSet, MbbSample, TrackSet

DURATION = 300
SPAN = (0, DURATION - 1)

# Acceptance-scale pipeline configuration: a 12-frame correlation window with
# alignment slack 4 keeps the full scenario suite inside its runtime budget.
WINDOW = 12
DT = 4
WARMUP = WINDOW + 1


def walk_together(seed=0, offsets=None, gait_amp=0.8, n_members=3) -> ScenarioSpec:
    offsets = offsets if offsets is not None else {"2": 1, "3": 2}
    members = tuple(range(1, n_members + 1))
    agents = [
        AgentSpec(m, start=(0.0, 4.0 * (m - 1)), box=(10.0, 24.0)) for m in members
    ]
    agents.append(AgentSpec(8, start=(60.0, -170.0), velocity=(0.5, 1.2)))
    agents.append(AgentSpec(9, start=(-140.0, 150.0), velocity=(1.3, -0.2)))
    events = [
        EventSpec(
            "WalkTogether", SPAN, members=members, group_id="g1",
            params={
                "velocity": [1.4, 0.25], "gait_amp": gait_amp, "gait_period": 16.0,
                "offsets": offsets, "sway_amp": 0.22,
            },
        ),
        EventSpec("single", SPAN, members=(8,), group_id="g8"),
        EventSpec("single", SPAN, members=(9,), group_id="g9"),
        EventSpec("Ignore", SPAN, groups=("g1", "g8")),
        EventSpec("Ignore", SPAN, groups=("g1", "g9")),
        EventSpec("Ignore", SPAN, groups=("g8", "g9")),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def fight(seed=0) -> ScenarioSpec:
    agents = [
        AgentSpec(1, start=(0.0, 0.0)),
        AgentSpec(2, start=(6.0, 2.0)),
        AgentSpec(3, start=(3.0, 6.0)),
        AgentSpec(7, start=(-150.0, 100.0), velocity=(0.9, 0.7)),
    ]
    events = [
        EventSpec(
            "Fight", SPAN, members=(1, 2, 3), group_id="g1",
            params={"jitter": 1.6, "box_jitter": 0.09},
        ),
        EventSpec("single", SPAN, members=(7,), group_id="g7"),
        EventSpec("Ignore", SPAN, groups=("g1", "g7")),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def run_together(seed=0) -> ScenarioSpec:
    agents = [
        AgentSpec(1, start=(0.0, 0.0)),
        AgentSpec(2, start=(0.0, 5.0)),
        AgentSpec(7, start=(240.0, -140.0), velocity=(-0.4, -1.1)),
        AgentSpec(8, start=(-90.0, 170.0), velocity=(-0.35, -1.05)),
    ]
    events = [
        EventSpec(
            "RunTogether", SPAN, members=(1, 2), group_id="g1",
            params={
                "velocity": [3.4, 0.5], "gait_amp": 0.35, "gait_period": 14.0,
                "offsets": {"2": 2}, "sway_amp": 0.22,
            },
        ),
        EventSpec("single", SPAN, members=(7,), group_id="g7"),
        EventSpec("single", SPAN, members=(8,), group_id="g8"),
        EventSpec("Ignore", SPAN, groups=("g1", "g7")),
        EventSpec("Ignore", SPAN, groups=("g1", "g8")),
        EventSpec("Ignore", SPAN, groups=("g7", "g8")),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def approach(seed=0) -> ScenarioSpec:
    agents = [
        AgentSpec(1, start=(0.0, 0.0)),
        AgentSpec(2, start=(5.0, 3.0)),
        AgentSpec(5, start=(330.0, 40.0)),
        AgentSpec(6, start=(-160.0, -240.0), velocity=(-1.4, 1.7)),
    ]
    events = [
        EventSpec("InGroup", SPAN, members=(1, 2), group_id="g1", params={"jitter": 0.14}),
        EventSpec("single", SPAN, members=(5,), group_id="g5"),
        EventSpec("single", SPAN, members=(6,), group_id="g6"),
        EventSpec("Approach", SPAN, groups=("g1", "g5"), params={"speed": 1.0, "min_dist": 20.0}),
        EventSpec("Ignore", SPAN, groups=("g1", "g6")),
        EventSpec("Ignore", SPAN, groups=("g5", "g6")),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def split(seed=0) -> ScenarioSpec:
    agents = [
        AgentSpec(1, start=(0.0, 0.0)),
        AgentSpec(2, start=(0.0, 4.0)),
        AgentSpec(3, start=(8.0, 0.0)),
        AgentSpec(4, start=(8.0, 4.0)),
    ]
    events = [
        EventSpec(
            "WalkTogether", SPAN, members=(1, 2), group_id="g1",
            params={"velocity": [-1.0, 0.15], "gait_amp": 0.4, "gait_period": 16.0,
                    "offsets": {"2": 1}, "sway_amp": 0.1},
        ),
        EventSpec(
            "WalkTogether", SPAN, members=(3, 4), group_id="g2",
            params={"velocity": [1.6, -0.2], "gait_amp": 0.4, "gait_period": 16.0,
                    "offsets": {"4": 1}, "sway_amp": 0.1},
        ),
        EventSpec("Split", SPAN, groups=("g1", "g2")),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def chase(seed=0) -> ScenarioSpec:
    agents = [
        AgentSpec(1, start=(0.0, 0.0)),
        AgentSpec(2, start=(0.0, 5.0)),
        AgentSpec(5, start=(-120.0, 2.0)),
        AgentSpec(7, start=(120.0, 240.0), velocity=(1.0, 0.8)),
    ]
    events = [
        EventSpec(
            "RunTogether", SPAN, members=(1, 2), group_id="g1",
            params={
                "velocity": [2.6, 0.35], "gait_amp": 0.3, "gait_period": 18.0,
                "offsets": {"2": 2}, "sway_amp": 0.2,
            },
        ),
        EventSpec("single", SPAN, members=(5,), group_id="g5"),
        EventSpec("single", SPAN, members=(7,), group_id="g7"),
        EventSpec("Chase", SPAN, groups=("g1", "g5"), params={"lag": 45.0, "gain": 1.08}),
        EventSpec("Ignore", SPAN, groups=("g1", "g7")),
        EventSpec("Ignore", SPAN, groups=("g5", "g7")),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def fig1_hierarchy(seed=0) -> ScenarioSpec:
    """Three people fighting while a fourth approaches: both levels planted."""
    agents = [
        AgentSpec(1, start=(0.0, 0.0)),
        AgentSpec(2, start=(6.0, 2.0)),
        AgentSpec(3, start=(3.0, 6.0)),
        AgentSpec(5, start=(115.0, -62.0)),
    ]
    events = [
        EventSpec(
            "Fight", SPAN, members=(1, 2, 3), group_id="g1",
            params={"jitter": 1.6, "box_jitter": 0.09},
        ),
        EventSpec("single", SPAN, members=(5,), group_id="g5"),
        EventSpec("Approach", SPAN, groups=("g1", "g5"), params={"speed": 0.35, "min_dist": 18.0}),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def approach_with_outlier(seed=0) -> ScenarioSpec:
    """An approach target group where one member jitters far harder.

    The restless member stays within grouping range (its geometry is part of
    the training distribution) but scores lowest on representativeness, so
    member-selecting and subset-averaging representatives discard it.
    """
    agents = [
        AgentSpec(1, start=(0.0, 0.0)),
        AgentSpec(2, start=(6.0, 0.0)),
        AgentSpec(3, start=(3.0, 5.0)),
        AgentSpec(5, start=(330.0, 40.0)),
    ]
    events = [
        EventSpec(
            "InGroup", SPAN, members=(1, 2, 3), group_id="g1",
            params={
                "jitter": 0.14,
                "jitter_overrides": {"3": 0.6},
                "box_jitter_overrides": {"3": 0.06},
            },
        ),
        EventSpec("single", SPAN, members=(5,), group_id="g5"),
        EventSpec("Approach", SPAN, groups=("g1", "g5"), params={"speed": 1.0, "min_dist": 20.0}),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def walk_async(seed=0, offset=4) -> ScenarioSpec:
    """Two people walking together whose gait bob is phase-delayed.

    Positions stay locked in parallel; the stream asynchrony lives in each
    walker's bounding-box pulse, so alignment-capable correlation models can
    rephase the streams while strictly synchronous ones cannot.
    """
    members = (1, 2)
    agents = [AgentSpec(m, start=(0.0, 4.0 * (m - 1)), box=(10.0, 24.0)) for m in members]
    agents.append(AgentSpec(8, start=(60.0, -170.0), velocity=(0.5, 1.2)))
    agents.append(AgentSpec(9, start=(-140.0, 150.0), velocity=(1.3, -0.2)))
    events = [
        EventSpec(
            "WalkTogether", SPAN, members=members, group_id="g1",
            params={
                "velocity": [1.4, 0.25], "gait_amp": 0.0,
                "box_amp": 0.16, "box_period": 12.0,
                "offsets": {"2": offset}, "sway_amp": 0.22,
            },
        ),
        EventSpec("single", SPAN, members=(8,), group_id="g8"),
        EventSpec("single", SPAN, members=(9,), group_id="g9"),
        EventSpec("Ignore", SPAN, groups=("g1", "g8")),
        EventSpec("Ignore", SPAN, groups=("g1", "g9")),
        EventSpec("Ignore", SPAN, groups=("g8", "g9")),
    ]
    return ScenarioSpec(seed=seed, duration=DURATION, agents=tuple(agents),
                        events=tuple(events), noise_sigma=0.03, box_sigma=0.004)


def outlier_probe(seed=0) -> ScenarioSpec:
    """A harder outlier, outside the training distribution.

    Used to probe representative selection on a given group: the outlier's
    correlations from its co-members collapse, so its score is strictly
    smallest.  Clustering is not expected to hold here.
    """
    spec = approach_with_outlier(seed)
    events = list(spec.events)
    ev = events[0]
    params = dict(ev.params)
    params["jitter_overrides"] = {"3": 1.4}
    params.pop("box_jitter_overrides", None)
    events[0] = EventSpec(ev.label, ev.frames, members=ev.members,
                          group_id=ev.group_id, params=params)
    return ScenarioSpec(seed=spec.seed, duration=spec.duration, agents=spec.agents,
                        events=tuple(events), noise_sigma=spec.noise_sigma,
                        box_sigma=spec.box_sigma)


EVAL_SCENARIOS = {
    "walk_together": walk_together,
    "fight": fight,
    "run_together": run_together,
    "approach": approach,
    "split": split,
    "chase": chase,
}


def merge_for_training(specs: list[ScenarioSpec]) -> tuple[TrackSet, AnnotationSet]:
    """Concatenate scenarios into one training corpus.

    Person ids and group ids are namespaced per scenario; the frame axis is
    shared.  Only annotated records feed training, so co-resident scenarios
    never interact.
    """
    from groupact.simgen import generate
    from groupact.trackio import AnnotationRecord, MbbSample

    samples = []
    records = []
    for k, spec in enumerate(specs):
        tracks, anns = generate(spec)
        off = 100 * (k + 1)
        for s in tracks.iter_samples():
            samples.append(MbbSample(s.frame, s.person + off, s.x, s.y, s.w, s.h))
        for r in anns.records:
            records.append(
                AnnotationRecord(
                    r.kind, r.label, r.start, r.end,
                    members=None if r.members is None else tuple(m + off for m in r.members),
                    groups=None if r.groups is None else tuple(f"s{k}-{g}" for g in r.groups),
                    group_id=None if r.group_id is None else f"s{k}-{r.group_id}",
                )
            )
    return TrackSet(samples), AnnotationSet(records)


def training_specs(base_seed=1000) -> list[ScenarioSpec]:
    builders = [EVAL_SCENARIOS[name] for name in sorted(EVAL_SCENARIOS)]
    builders.append(fig1_hierarchy)
    builders.append(approach_with_outlier)
    specs = [build(seed=base_seed + i) for i, build in enumerate(builders)]
    specs.append(walk_async(seed=base_seed + len(specs), offset=1))
    return specs


def composite_spec(seed=0, duration=DURATION) -> ScenarioSpec:
    """All training scenarios folded into one spec (training corpora only).

    Agents get disjoint id ranges and group ids are namespaced; sub-scenes
    may overlap spatially, which is harmless because only annotated records
    feed training.
    """
    merged_agents = []
    merged_events = []
    for k, spec in enumerate(training_specs(base_seed=seed * 131 + 7)):
        off = 100 * (k + 1)
        for a in spec.agents:
            merged_agents.append(
                AgentSpec(a.agent + off, start=a.start, velocity=a.velocity, box=a.box)
            )
        for e in spec.events:
            merged_events.append(
                EventSpec(
                    e.label,
                    (min(e.frames[0], duration - 1), min(e.frames[1], duration - 1)),
                    members=tuple(m + off for m in e.members),
                    group_id=None if e.group_id is None else f"s{k}-{e.group_id}",
                    groups=None if e.groups is None else tuple(f"s{k}-{g}" for g in e.groups),
                    params={
                        **e.params,
                        **(
                            {"offsets": {str(int(m) + off): v for m, v in e.params["offsets"].items()}}
                            if "offsets" in e.params else {}
                        ),
                        **(
                            {"jitter_overrides": {str(int(m) + off): v for m, v in e.params["jitter_overrides"].items()}}
                            if "jitter_overrides" in e.params else {}
                        ),
                        **(
                            {"box_jitter_overrides": {str(int(m) + off): v for m, v in e.params["box_jitter_overrides"].items()}}
                            if "box_jitter_overrides" in e.params else {}
                        ),
                    },
                )
            )
    return ScenarioSpec(
        seed=seed, duration=duration, agents=tuple(merged_agents),
        events=tuple(merged_events), noise_sigma=0.03, box_sigma=0.004,
    )


_BOX = st.tuples(st.floats(1.0, 400.0), st.floats(1.0, 400.0))


@st.composite
def ragged_tracks(draw, min_frames=0, max_frames=16, present=st.integers(0, 3).map(bool)):
    """Up to four people with gaps, one-frame tracks, zero motion and 4K-frame coordinates.

    A person stands still, walks with the shared step, or jumps and resizes at
    random; some start a few pixels from a shared spot at the trained box
    size, so groups can form.  After its first sample a person lives
    ``min_frames`` to ``max_frames`` more frames, each sampled when
    ``present`` draws True (three in four by default).
    """
    spot_x, spot_y = draw(st.floats(0.0, 3840.0)), draw(st.floats(0.0, 2160.0))
    step_x, step_y = draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    rows = []
    for person in range(1, draw(st.integers(1, 4)) + 1):
        frame = draw(st.integers(0, 8))
        if draw(st.booleans()):
            x, y = spot_x + draw(st.floats(-8.0, 8.0)), spot_y + draw(st.floats(-8.0, 8.0))
        else:
            x, y = draw(st.floats(0.0, 3840.0)), draw(st.floats(0.0, 2160.0))
        w, h = draw(st.one_of(st.just((10.0, 24.0)), _BOX))
        motion = draw(st.sampled_from(["still", "walk", "jump"]))
        rows.append(MbbSample(frame, person, x, y, w, h))
        for sampled in draw(st.lists(present, min_size=min_frames, max_size=max_frames)):
            frame += 1
            if motion == "walk":
                x, y = x + step_x, y + step_y
            elif motion == "jump":
                x, y = x + draw(st.floats(-60.0, 60.0)), y + draw(st.floats(-60.0, 60.0))
                w, h = draw(_BOX)
            if sampled:
                rows.append(MbbSample(frame, person, x, y, w, h))
    return TrackSet(rows)


@st.composite
def bounded_tracks(draw, max_frames=16, present=st.integers(0, 3).map(bool)):
    """Up to four people whose coordinates and box sizes reach the sample bounds.

    A person stands still or jumps anywhere within ``|x|, |y| <= COORD_MAX``
    with a new box in ``SIZE_MIN..SIZE_MAX`` every frame.  Draws favour the
    bounds and the origin, so people share spots and groups can form.  Each
    of up to ``max_frames`` frames is sampled when ``present`` draws True.
    """
    coord = st.one_of(st.sampled_from([-COORD_MAX, 0.0, COORD_MAX]), st.floats(-COORD_MAX, COORD_MAX))
    size = st.one_of(st.sampled_from([SIZE_MIN, 1.0, SIZE_MAX]), st.floats(SIZE_MIN, SIZE_MAX))
    frames = draw(st.integers(2, max_frames))
    rows = []
    for person in range(1, draw(st.integers(1, 4)) + 1):
        still = draw(st.booleans())
        box = draw(coord), draw(coord), draw(size), draw(size)
        for frame in range(frames):
            if not still:
                box = draw(coord), draw(coord), draw(size), draw(size)
            if draw(present):
                rows.append(MbbSample(frame, person, *box))
    return TrackSet(rows)
