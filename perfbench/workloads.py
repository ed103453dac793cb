"""Benchmark inputs: scenario specs owned by the benchmark, tiling, occlusion gaps.

The specs in ``data/specs.json`` are frozen copies of the planted evaluation
scenarios and the nine-scene training suite.  Every input of a run is derived
from them and from the run's ``--seed``; nothing here reads the test suite.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from groupact.simgen import AgentSpec, EventSpec, ScenarioSpec
from groupact.trackio import TrackSet, write_tracks

DATA = Path(__file__).resolve().parent / "data"

# The bank's configuration, also used by the acceptance suite.
WINDOW = 12
DT = 4
WARMUP = WINDOW + 1

TILE_SPACING = 2000.0  # px between tiled scenes; far beyond any grouping distance
ID_STRIDE = 100  # person-id offset per tile; every stored scene uses ids below it
GAP_EVERY = 60  # one occlusion gap per person per this many frames
GAP_LEN = 3  # frames per gap

# Offsets that keep the spec seeds of different workloads apart for one --seed.
_SCENES_SEED, _CROWD_SEED, _CORPUS_SEED = 1, 50, 77


def _load() -> dict:
    with open(DATA / "specs.json") as fp:
        return json.load(fp)


def _reseed(payload: dict, seed: int) -> ScenarioSpec:
    return ScenarioSpec.from_payload({**payload, "seed": seed})


def scene_specs(seed: int) -> list[tuple[str, ScenarioSpec]]:
    """The six planted evaluation scenarios, each with its own spec seed."""
    return [
        (s["name"], _reseed(s["spec"], seed * 101 + _SCENES_SEED + i))
        for i, s in enumerate(_load()["scenes"])
    ]


def tile_specs() -> list[tuple[str, ScenarioSpec]]:
    return [(s["name"], ScenarioSpec.from_payload(s["spec"])) for s in _load()["tiles"]]


def _rekey(params: dict, key: str, off: int) -> dict:
    if key not in params:
        return {}
    return {key: {str(int(m) + off): v for m, v in params[key].items()}}


def tile(specs: list[ScenarioSpec], seed: int) -> ScenarioSpec:
    """Lay scenes side by side in one spec.

    Scene k moves ``k * TILE_SPACING`` px along x, its person ids gain
    ``ID_STRIDE * (k + 1)`` and its group ids become ``s<k>-<id>``, so every
    scene keeps its own exact ground truth.
    """
    agents, events = [], []
    duration = specs[0].duration
    for k, spec in enumerate(specs):
        if spec.duration != duration:
            raise ValueError("tiled scenes must share one duration")
        off = ID_STRIDE * (k + 1)
        if any(not 0 < a.agent < ID_STRIDE for a in spec.agents):
            raise ValueError(f"scene {k} has person ids outside 1..{ID_STRIDE - 1}")
        dx = k * TILE_SPACING
        for a in spec.agents:
            start = (a.start[0] + dx, a.start[1])
            agents.append(AgentSpec(a.agent + off, start=start, velocity=a.velocity, box=a.box))
        for e in spec.events:
            params = {
                **e.params,
                **_rekey(e.params, "offsets", off),
                **_rekey(e.params, "jitter_overrides", off),
                **_rekey(e.params, "box_jitter_overrides", off),
            }
            events.append(
                EventSpec(
                    e.label, e.frames,
                    members=tuple(m + off for m in e.members),
                    group_id=None if e.group_id is None else f"s{k}-{e.group_id}",
                    groups=None if e.groups is None else tuple(f"s{k}-{g}" for g in e.groups),
                    params=params,
                )
            )
    return ScenarioSpec(
        seed=seed, duration=duration, agents=tuple(agents), events=tuple(events),
        noise_sigma=specs[0].noise_sigma, box_sigma=specs[0].box_sigma,
    )


def crowd_spec(seed: int) -> ScenarioSpec:
    return tile([s for _, s in tile_specs()], seed * 101 + _CROWD_SEED)


def corpus_spec(seed: int) -> ScenarioSpec:
    """The training corpus: the same nine tiled scenes under a disjoint spec seed."""
    return tile([s for _, s in tile_specs()], seed * 101 + _CORPUS_SEED)


def occlude(tracks: TrackSet, seed: int) -> TrackSet:
    """Drop ``GAP_LEN`` consecutive samples per person in every ``GAP_EVERY`` frames.

    Within a block the gap starts are spread evenly over the block and dealt
    to persons in a seeded order, so every frame has about the same number of
    recently occluded persons whatever the seed: the seed moves the gaps
    between persons, not the amount of short-window work per frame.
    """
    rng = np.random.default_rng([seed, 0x6A9])
    lo, hi = tracks.frame_range
    persons = tracks.persons
    starts = [k * (GAP_EVERY - GAP_LEN + 1) // len(persons) for k in range(len(persons))]
    dropped = set()
    for block in range(lo, hi + 1, GAP_EVERY):
        for person, k in zip(persons, rng.permutation(len(persons))):
            start = block + starts[k]
            dropped.update((person, f) for f in range(start, start + GAP_LEN))
    kept = (s for s in tracks.iter_samples() if (s.person, s.frame) not in dropped)
    return TrackSet(kept)


def tracks_csv(tracks: TrackSet) -> str:
    """The track CSV text a user would hand to ``groupact detect``."""
    buf = io.StringIO()
    write_tracks(tracks, buf)
    return buf.getvalue()
