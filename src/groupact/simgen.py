"""Deterministic synthetic multi-agent scenarios with exact ground truth.

Agents follow simple kinematics: a default constant velocity, overridden per
frame by planted events (shared gait-modulated walks with per-member delay,
anchored jitter for in-place groups, box-pulsing fights, targeted approach,
path-retracing chases).  The same spec always produces bit-identical tracks;
annotations mirror exactly what was planted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .trackio import AnnotationRecord, AnnotationSet, TrackSet, json_groups, json_ids, json_int, json_str


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class AgentSpec:
    agent: int
    start: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    box: tuple[float, float] = (10.0, 24.0)


@dataclass(frozen=True)
class EventSpec:
    """A planted activity.

    Member events ("sym" kinds) drive their members' motion; inter-group
    events reference two previously declared groups and may drive the second
    group (approach, chase).  ``params`` per label:

    - WalkTogether / RunTogether: velocity (vx, vy), gait_amp, gait_period,
      offsets {member: frames} for per-member asynchrony
    - InGroup: jitter (step scale)
    - Fight: jitter, box_jitter (area pulse fraction)
    - Approach: speed, min_dist (mover group steers at the target's centroid)
    - Chase: lag (frames), gain (path-time compression, keeps the chaser
      faster so group ordering stays stable)
    - Split / Ignore: annotation only; members move per their other events
    """

    label: str
    frames: tuple[int, int]
    members: tuple[int, ...] = ()
    group_id: str | None = None
    groups: tuple[str, str] | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int
    duration: int
    agents: tuple[AgentSpec, ...]
    events: tuple[EventSpec, ...] = ()
    noise_sigma: float = 0.0
    box_sigma: float = 0.0  # relative box-size noise

    def __post_init__(self) -> None:
        ids = [a.agent for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ScenarioError("duplicate agent ids")
        if self.duration < 1:
            raise ScenarioError(f"duration {self.duration!r} is not positive")
        for name in ("noise_sigma", "box_sigma"):
            if not getattr(self, name) >= 0:
                raise ScenarioError(f"{name} {getattr(self, name)!r} is negative or not a number")
        for ev in self.events:
            a, b = ev.frames
            if not (0 <= a <= b < self.duration):
                raise ScenarioError(f"event {ev.label} interval outside duration")
            for m in ev.members:
                if m not in ids:
                    raise ScenarioError(f"event {ev.label} references missing agent {m}")

    @classmethod
    def from_payload(cls, obj: dict) -> "ScenarioSpec":
        agents = tuple(
            AgentSpec(
                agent=json_int(a["agent"], "agent"),
                start=_pair(a["start"], f"agent {a['agent']} start"),
                velocity=_pair(a.get("velocity", (0.0, 0.0)), f"agent {a['agent']} velocity"),
                box=_pair(a.get("box", (10.0, 24.0)), f"agent {a['agent']} box"),
            )
            for a in obj["agents"]
        )
        events = tuple(
            EventSpec(
                label=json_str(e["label"], "event label"),
                frames=tuple(json_int(v, "event frame") for v in e["frames"]),
                members=json_ids(e.get("members", ()), "event members"),
                group_id=None if e.get("group_id") is None else json_str(e["group_id"], "event group_id"),
                groups=json_groups(e["groups"], "event groups") if "groups" in e else None,
                params=_params(e.get("params", {}), f"event {e['label']} params"),
            )
            for e in obj.get("events", ())
        )
        return cls(
            seed=json_int(obj["seed"], "seed"),
            duration=json_int(obj["duration"], "duration"),
            agents=agents,
            events=events,
            noise_sigma=_number(obj.get("noise_sigma", 0.0), "noise_sigma"),
            box_sigma=_number(obj.get("box_sigma", 0.0), "box_sigma"),
        )

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "noise_sigma": self.noise_sigma,
            "box_sigma": self.box_sigma,
            "agents": [
                {
                    "agent": a.agent,
                    "start": list(a.start),
                    "velocity": list(a.velocity),
                    "box": list(a.box),
                }
                for a in self.agents
            ],
            "events": [
                {
                    "label": e.label,
                    "frames": list(e.frames),
                    **({"members": list(e.members)} if e.members else {}),
                    **({"group_id": e.group_id} if e.group_id else {}),
                    **({"groups": list(e.groups)} if e.groups else {}),
                    **({"params": e.params} if e.params else {}),
                }
                for e in self.events
            ],
        }


# the numeric event parameters that generate reads, besides the (vx, vy) "velocity"
_NUMBER_PARAMS = {"gait_amp", "gait_period", "sway_amp", "sway_period", "box_amp", "box_period",
                  "jitter", "box_jitter", "speed", "min_dist", "lag", "gain"}
# {member: number}; offsets are whole frames
_PER_MEMBER_PARAMS = {"offsets", "jitter_overrides", "box_jitter_overrides"}
# generate divides by the periods and draws or scales with the jitters
_POSITIVE_PARAMS = {"gait_period", "sway_period", "box_period"}
_NON_NEGATIVE_PARAMS = {"jitter", "box_jitter", "jitter_overrides", "box_jitter_overrides"}


def _number(value, what: str) -> float:
    """A JSON number as a float; ScenarioError naming ``what`` for a bool, string or other value."""
    if type(value) not in (int, float):
        raise ScenarioError(f"{what} {value!r} is not a number")
    return float(value)


def _pair(values, what: str) -> tuple[float, float]:
    """Two JSON numbers as floats; ScenarioError naming ``what`` for anything else."""
    if not isinstance(values, (list, tuple)) or len(values) != 2:
        raise ScenarioError(f"{what} {values!r} is not a list of two numbers")
    return _number(values[0], what), _number(values[1], what)


def _param(name: str, value, what: str) -> None:
    """ScenarioError naming ``what`` unless ``value`` is a number in the range
    that ``generate`` needs for the parameter ``name``."""
    v = _number(value, what)
    if name in _POSITIVE_PARAMS and not v > 0:
        raise ScenarioError(f"{what} {value!r} is not positive")
    if name in _NON_NEGATIVE_PARAMS and not v >= 0:
        raise ScenarioError(f"{what} {value!r} is negative or not a number")


def _params(params, what: str) -> dict:
    """Event parameters whose numeric entries are numbers in range;
    ScenarioError naming the first that is not."""
    if not isinstance(params, dict):
        raise ScenarioError(f"{what} {params!r} is not an object")
    for name, value in params.items():
        if name == "velocity":
            _pair(value, f"{what} {name}")
        elif name in _NUMBER_PARAMS:
            _param(name, value, f"{what} {name}")
        elif name in _PER_MEMBER_PARAMS:
            if not isinstance(value, dict):
                raise ScenarioError(f"{what} {name} {value!r} is not an object")
            for member, v in value.items():
                if name == "offsets" and type(v) is not int:
                    raise ScenarioError(f"{what} {name} {member} {v!r} is not an integer")
                _param(name, v, f"{what} {name} {member}")
    return dict(params)


_MOTION_SYM = {"WalkTogether", "RunTogether", "InGroup", "Fight"}
_MOTION_ASYM = {"Approach", "Chase"}


def _gait(base: np.ndarray, amp: float, period: float, t: int) -> np.ndarray:
    return base * (1.0 + amp * math.sin(2.0 * math.pi * t / period))


def generate(spec: ScenarioSpec) -> tuple[TrackSet, AnnotationSet]:
    """Simulate the scenario; returns tracks plus exact ground truth."""
    rng = np.random.default_rng(spec.seed)
    T = spec.duration
    ids = [a.agent for a in spec.agents]
    index = {a: i for i, a in enumerate(ids)}
    agents = {a.agent: a for a in spec.agents}

    # one motion driver per agent per frame at most
    driver: dict[int, list[EventSpec | None]] = {a: [None] * T for a in ids}
    groups_declared: dict[str, EventSpec] = {}
    for ev in spec.events:
        if ev.members and ev.group_id:
            groups_declared[ev.group_id] = ev
        moved: tuple[int, ...] = ()
        if ev.label in _MOTION_SYM:
            moved = ev.members
        elif ev.label in _MOTION_ASYM:
            if not ev.groups or ev.groups[1] not in groups_declared:
                raise ScenarioError(f"event {ev.label} needs two declared groups")
            moved = groups_declared[ev.groups[1]].members
        for m in moved:
            for t in range(ev.frames[0], ev.frames[1] + 1):
                if driver[m][t] is not None:
                    raise ScenarioError(
                        f"agent {m} has conflicting motion events at frame {t}"
                    )
                driver[m][t] = ev

    pos = np.zeros((len(ids), T, 2))
    box = np.zeros((len(ids), T, 2))
    for a in ids:
        pos[index[a], 0] = agents[a].start
        box[index[a], :, 0] = agents[a].box[0]
        box[index[a], :, 1] = agents[a].box[1]

    anchors: dict[tuple, np.ndarray] = {}

    def lead_centroid(ev: EventSpec, frame_value: float, latest: int) -> np.ndarray:
        """Leader-group centroid at a (possibly fractional) past frame."""
        members = groups_declared[ev.groups[0]].members
        f = min(max(frame_value, 0.0), float(latest))
        lo = int(math.floor(f))
        hi = min(lo + 1, latest)
        frac = f - lo
        c_lo = np.mean([pos[index[m], lo] for m in members], axis=0)
        c_hi = np.mean([pos[index[m], hi] for m in members], axis=0)
        return (1.0 - frac) * c_lo + frac * c_hi

    # frame-sequential integration; rng consumption order is fixed by
    # (frame, agent-declaration-order) so identical specs give identical draws
    for t in range(1, T):
        for a in ids:
            i = index[a]
            ev = driver[a][t]
            if ev is None:
                vel = np.asarray(agents[a].velocity)
                pos[i, t] = pos[i, t - 1] + vel
                continue
            p = ev.params
            key = (a, ev.frames, ev.label)
            if ev.label in ("WalkTogether", "RunTogether"):
                base = np.asarray(p.get("velocity", agents[a].velocity), dtype=float)
                amp = float(p.get("gait_amp", 0.0))
                period = float(p.get("gait_period", 20.0))
                offset = int(p.get("offsets", {}).get(str(a), p.get("offsets", {}).get(a, 0)))
                phase = t - ev.frames[0] - offset
                vel = _gait(base, amp, period, phase)
                sway = float(p.get("sway_amp", 0.0))
                if sway:
                    # bounded perpendicular drift so formations breathe
                    speed = float(np.hypot(*base)) or 1.0
                    perp = np.array([-base[1], base[0]]) / speed
                    sway_period = float(p.get("sway_period", 37.0))
                    member_phase = 2.4 * ev.members.index(a)
                    vel = vel + perp * sway * math.sin(
                        2.0 * math.pi * t / sway_period + member_phase
                    )
                pos[i, t] = pos[i, t - 1] + vel
                box_amp = float(p.get("box_amp", 0.0))
                if box_amp:
                    box_period = float(p.get("box_period", period))
                    pulse = 1.0 + box_amp * math.sin(2.0 * math.pi * phase / box_period)
                    box[i, t] = box[i, t] * pulse
            elif ev.label in ("InGroup", "Fight"):
                if key not in anchors:
                    anchors[key] = pos[i, max(ev.frames[0] - 1, 0)].copy()
                anchor = anchors[key]
                overrides = p.get("jitter_overrides", {})
                jit = float(overrides.get(str(a), overrides.get(a, p.get("jitter", 0.3))))
                step = 0.5 * (anchor - pos[i, t - 1]) + rng.normal(0.0, jit, 2)
                pos[i, t] = pos[i, t - 1] + step
                bj_over = p.get("box_jitter_overrides", {})
                bj = float(
                    bj_over.get(
                        str(a),
                        bj_over.get(a, p.get("box_jitter", 0.08) if ev.label == "Fight" else 0.0),
                    )
                )
                if bj:
                    sign = 1.0 if (t % 2 == 0) else -1.0
                    scale = 1.0 + sign * bj * (0.8 + 0.2 * rng.random())
                    box[i, t] = box[i, t] * scale
            elif ev.label == "Approach":
                target = lead_centroid(ev, t - 1, t - 1)
                delta = target - pos[i, t - 1]
                dist = float(np.hypot(*delta))
                speed = float(p.get("speed", 1.5))
                min_dist = float(p.get("min_dist", 25.0))
                if dist > max(min_dist, 1e-9):
                    pos[i, t] = pos[i, t - 1] + delta / dist * min(speed, dist - min_dist)
                else:
                    pos[i, t] = pos[i, t - 1]
            elif ev.label == "Chase":
                lag = float(p.get("lag", 10))
                gain = float(p.get("gain", 1.1))
                t0 = ev.frames[0]
                src = t0 - lag + gain * (t - t0)
                ref = lead_centroid(ev, src, t - 1)
                if key not in anchors:
                    start = lead_centroid(ev, t0 - lag, max(t0 - 1, 0))
                    anchors[key] = pos[i, max(t0 - 1, 0)] - start
                pos[i, t] = ref + anchors[key]
            else:
                vel = np.asarray(agents[a].velocity)
                pos[i, t] = pos[i, t - 1] + vel

    if spec.noise_sigma > 0:
        pos = pos + rng.normal(0.0, spec.noise_sigma, pos.shape)
    if spec.box_sigma > 0:
        box = box * (1.0 + rng.normal(0.0, spec.box_sigma, box.shape))

    xywh = np.concatenate([pos, box], axis=2).reshape(-1, 4).T  # agent-major, then frame
    tracks = TrackSet.from_columns(np.tile(np.arange(T), len(ids)), [a for a in ids for _ in range(T)], xywh)

    records = []
    for ev in spec.events:
        if ev.members:
            records.append(
                AnnotationRecord(
                    "sym", ev.label, ev.frames[0], ev.frames[1],
                    members=tuple(sorted(ev.members)), group_id=ev.group_id,
                )
            )
        else:
            records.append(
                AnnotationRecord(
                    "asym", ev.label, ev.frames[0], ev.frames[1], groups=ev.groups
                )
            )
    return tracks, AnnotationSet(records)


def load_spec(fp) -> ScenarioSpec:
    try:
        obj = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"unparseable scenario file: {exc}") from None
    try:
        return ScenarioSpec.from_payload(obj)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"bad scenario structure: {exc}") from None
