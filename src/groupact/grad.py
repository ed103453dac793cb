"""Per-frame detection pipeline: cluster, label groups, pick representatives,
label group pairs.

Each frame is clustered into symmetric groups, every group gets a symmetric
activity label (from its seed or from a group-feature model with a
correlation prior), a representative entity is extracted per group, and
every group pair gets a relation label from the correlation between the two
representatives times a cross-pair prior.  A majority-vote baseline over
cross pairs is available for comparison.  Representative-based scoring keeps
the inter-group input size fixed no matter how many members a group has.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import features as feats
from .clustering import (
    GroupAssignment,
    Partition,
    assign_remaining,
    detect_seeds,
    merge_seeds,
)
from .grouprep import GroupRepresentative, make_representative
from .seqmodel import (
    ActivityModelBank,
    CorrelationEngine,
    DataError,
    check_thresholds,
    check_window,
)
from .taxonomy import SINGLE
from .trackio import ParseError, TrackSet


@dataclass(frozen=True)
class PipelineConfig:
    """Runtime knobs; defaults follow the trained bank where not given."""

    gr: str = "sv"
    variant: int = 1
    baseline: str | None = None
    tc: float = 0.1
    to: float = 0.95
    tr: float = 0.3
    window: int = 25
    dt: int = 5
    smoothing: bool = False

    def __post_init__(self) -> None:
        if self.gr not in ("p", "v", "sv"):
            raise ValueError(f"unknown representative kind {self.gr!r}")
        if self.variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        if self.baseline not in (None, "mv"):
            raise ValueError("baseline must be omitted or 'mv'")
        check_thresholds(tc=self.tc, to=self.to, tr=self.tr)
        check_window(self.window, self.dt)

    @classmethod
    def from_bank(cls, bank: ActivityModelBank, **overrides) -> "PipelineConfig":
        base = dict(
            tc=bank.tc, to=bank.to, tr=bank.tr, window=bank.window, dt=bank.dt
        )
        base.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**base)


@dataclass(frozen=True)
class PairLabel:
    a: int  # slower group's index
    b: int
    label: str


@dataclass(frozen=True)
class FrameDetection:
    """Everything detected at one frame, or the reason the frame was skipped."""

    frame: int
    partition: Partition | None
    group_labels: tuple[str, ...] = ()
    pair_labels: tuple[PairLabel, ...] = ()
    skipped: str | None = None


@dataclass(frozen=True)
class GroupContext:
    """A clustered group plus its label and representative."""

    index: int
    members: tuple[int, ...]
    label: str
    rep: GroupRepresentative
    speed: float


def _argmax_label(scores: dict[str, float]) -> str | None:
    """The label with the largest score, ties to the smallest; None if none beats -inf."""
    best = None
    best_v = -np.inf
    for label in sorted(scores):
        if scores[label] > best_v:
            best, best_v = label, scores[label]
    return best


def _cross_profiles(engine: CorrelationEngine, subjects, targets, t: int) -> list[np.ndarray]:
    """Profile rows of each target person w.r.t. each subject person, subjects
    outermost; pairs without a window are left out."""
    items = [((j,), (i,)) for j in subjects for i in targets]
    profs = engine.profiles(items, t)
    return [profs[key] for key in items if profs[key] is not None]


def _pair_sums(engine: CorrelationEngine, subjects, targets, t: int) -> np.ndarray:
    """Summed profile rows of every (subject, target) person pair, in ``engine.labels`` order."""
    return sum(_cross_profiles(engine, subjects, targets, t), np.zeros(len(engine.labels)))


def recognize_symmetric(
    engine: CorrelationEngine, group: GroupAssignment, t: int, variant: int
) -> str:
    """Label one group: seed label pass-through (1) or group-feature model (2).

    Singletons are labelled "single".  A seedless label (variant 1 with an
    unlabelled active seed) falls back to the strongest grouping label under
    the summed pairwise correlations; variant 2 maximises the group-feature
    likelihood times the pairwise-correlation prior over grouping labels.
    """
    members = group.members
    if len(members) == 1:
        return SINGLE
    if variant == 1 and group.label is not None:
        return group.label
    candidates = engine.bank.taxonomy.grouping_labels()
    sums = _pair_sums(engine, members, members, t)  # each member's self-profile included
    prior = {label: float(sums[engine.column[label]]) for label in candidates}
    scores = prior
    if variant == 2:
        scores = {}
        for label in candidates:
            glik = engine.group_score(label, members, t)
            if glik is not None:
                scores[label] = glik + prior[label]
        if not scores:  # no group models available: fall back to the prior only
            scores = prior
    best = _argmax_label(scores)
    return SINGLE if best is None else best


def _relation_scores(
    engine: CorrelationEngine, slow: GroupContext, fast: GroupContext, t: int
) -> dict[str, float]:
    """Log score per candidate: representative correlation times cross-pair prior."""
    gr_prof = engine.profile(fast.rep.members, slow.rep.members, t)
    scores = _pair_sums(engine, fast.members, slow.members, t)
    if gr_prof is not None:
        with np.errstate(divide="ignore"):
            scores = np.log(gr_prof) + scores
    return {label: float(scores[engine.column[label]])
            for label in engine.bank.taxonomy.intergroup_candidates()}


def _order_groups(a: GroupContext, b: GroupContext) -> tuple[GroupContext, GroupContext]:
    """Slower group first; speed ties break on the smaller group index."""
    if (a.speed, a.index) <= (b.speed, b.index):
        return a, b
    return b, a


def _mode(votes, tie_key) -> str:
    """The most frequent vote; ties go to the largest ``tie_key``, then the smallest label."""
    counts = Counter(votes)
    top = max(counts.values())
    return max(sorted(l for l, c in counts.items() if c == top), key=tie_key)


def recognize_intergroup(
    engine: CorrelationEngine, a: GroupContext, b: GroupContext, t: int
) -> PairLabel:
    """Relation label for a group pair from their representatives."""
    slow, fast = _order_groups(a, b)
    scores = _relation_scores(engine, slow, fast, t)
    return PairLabel(slow.index, fast.index, _argmax_label(scores))


def majority_vote_intergroup(
    engine: CorrelationEngine, a: GroupContext, b: GroupContext, t: int
) -> PairLabel:
    """Mode over cross-pair labels; ties go to the larger summed correlation."""
    slow, fast = _order_groups(a, b)
    candidates = engine.bank.taxonomy.intergroup_candidates()
    cols = [engine.column[label] for label in candidates]
    rows = _cross_profiles(engine, fast.members, slow.members, t)
    if not rows:
        raise DataError(f"no evaluable cross pair between groups at frame {t}")
    votes = [candidates[row[cols].argmax()] for row in rows]
    sums = sum(rows, np.zeros(len(engine.labels)))
    return PairLabel(slow.index, fast.index, _mode(votes, lambda l: sums[engine.column[l]]))


def run_pipeline(
    bank: ActivityModelBank,
    tracks: TrackSet,
    config: PipelineConfig | None = None,
    frames=None,
    strict: bool = False,
    engine: CorrelationEngine | None = None,
) -> list[FrameDetection]:
    """Cluster, label, and relate groups for every frame in range.

    Frames whose computation fails are reported as skipped records with a
    reason instead of aborting, unless ``strict`` is set.  A given ``engine``
    must be built from ``bank`` and ``tracks`` at the config's window and dt,
    else ValueError.
    """
    config = config or PipelineConfig.from_bank(bank)
    if engine is None:
        engine = CorrelationEngine(bank, tracks, window=config.window, dt=config.dt)
    elif engine.bank is not bank or engine.tracks is not tracks:
        raise ValueError("engine was built for another bank or track set")
    elif (engine.window, engine.dt) != (config.window, config.dt):
        raise ValueError(
            f"engine window/dt {engine.window}/{engine.dt} differ from "
            f"the config's {config.window}/{config.dt}"
        )
    if frames is None:
        rng = tracks.frame_range
        if rng is None:
            return []
        frames = range(rng[0] + 1, rng[1] + 1)
    out: list[FrameDetection] = []
    for t in frames:
        try:
            out.append(_detect_frame(engine, t, config))
        except (feats.ObservationUnavailable, DataError) as exc:
            if strict:
                raise
            out.append(FrameDetection(t, None, skipped=str(exc)))
    if config.smoothing:
        out = _smooth_labels(out)
    return out


def _detect_frame(engine: CorrelationEngine, t: int, config: PipelineConfig) -> FrameDetection:
    present = engine.tracks.observable_persons(t)
    if not present:
        return FrameDetection(t, Partition(t, (), ()))
    profiles = engine.profiles([((a,), (b,)) for a in present for b in present if a != b], t)
    seeds = detect_seeds(engine, profiles, t, config.tc, config.to)
    seeds = merge_seeds(seeds, engine, profiles)
    partition = assign_remaining(engine, t, seeds)

    contexts = []
    labels = []
    for idx, grp in enumerate(partition.groups):
        label = recognize_symmetric(engine, grp, t, config.variant)
        labels.append(label)
        rep = make_representative(config.gr, engine, grp.members, label, t, config.tr)
        speed = feats.entity_average_speed(engine.tracks, grp.members, t, config.window)
        contexts.append(GroupContext(idx, grp.members, label, rep, speed))

    pair_labels = []
    for i in range(len(contexts)):
        for j in range(i + 1, len(contexts)):
            if config.baseline == "mv":
                pl = majority_vote_intergroup(engine, contexts[i], contexts[j], t)
            else:
                pl = recognize_intergroup(engine, contexts[i], contexts[j], t)
            pair_labels.append(pl)
    return FrameDetection(t, partition, tuple(labels), tuple(pair_labels))


def _smooth_labels(dets: list[FrameDetection], radius: int = 2) -> list[FrameDetection]:
    """Majority-filter group and pair labels over +-radius frames."""
    by_frame = {d.frame: d for d in dets if d.partition is not None}

    def window(frame):
        return [by_frame[f] for f in range(frame - radius, frame + radius + 1) if f in by_frame]

    out = []
    for d in dets:
        if d.partition is None:
            out.append(d)
            continue
        new_group_labels = []
        for gi, grp in enumerate(d.partition.groups):
            key = frozenset(grp.members)
            votes = []
            for w in window(d.frame):
                for gj, other in enumerate(w.partition.groups):
                    if frozenset(other.members) == key:
                        votes.append(w.group_labels[gj])
            cur = d.group_labels[gi]
            new_group_labels.append(_mode(votes, lambda l: l == cur))
        new_pairs = []
        for pl in d.pair_labels:
            ka = frozenset(d.partition.groups[pl.a].members)
            kb = frozenset(d.partition.groups[pl.b].members)
            key = frozenset((ka, kb))
            votes = []
            for w in window(d.frame):
                sets = [frozenset(g.members) for g in w.partition.groups]
                for opl in w.pair_labels:
                    if frozenset((sets[opl.a], sets[opl.b])) == key:
                        votes.append(opl.label)
            new_pairs.append(replace(pl, label=_mode(votes, lambda l: l == pl.label)))
        out.append(replace(d, group_labels=tuple(new_group_labels), pair_labels=tuple(new_pairs)))
    return out


def write_detections(dets: list[FrameDetection], fp) -> None:
    """One JSON record per frame with a stable field order."""
    for d in dets:
        if d.partition is None:
            fp.write(json.dumps({"frame": d.frame, "skipped": d.skipped or ""}) + "\n")
            continue
        groups = [
            {
                "id": i,
                "members": list(g.members),
                "label": d.group_labels[i] if i < len(d.group_labels) else (g.label or SINGLE),
                "seed": list(g.seed_members),
            }
            for i, g in enumerate(d.partition.groups)
        ]
        pairs = [{"a": p.a, "b": p.b, "label": p.label} for p in d.pair_labels]
        fp.write(json.dumps({"frame": d.frame, "groups": groups, "pairs": pairs}) + "\n")


def _label(value, what: str = "label") -> str:
    if not isinstance(value, str):
        raise TypeError(f"{what} {value!r} is not a string")
    return value


def _detection_record(obj) -> FrameDetection:
    frame = int(obj["frame"])
    if "skipped" in obj:
        return FrameDetection(frame, None, skipped=_label(obj["skipped"], f"frame {frame}: skip reason"))
    groups = []
    for g in obj["groups"]:
        members = tuple(sorted(int(m) for m in g["members"]))
        seed = tuple(sorted(int(m) for m in g.get("seed", ())))
        assigned = tuple(m for m in members if m not in seed)
        groups.append(GroupAssignment(members, seed, assigned, _label(g["label"])))
    persons = tuple(sorted(m for g in groups for m in g.members))
    partition = Partition(frame, persons, tuple(groups))
    pairs = tuple(PairLabel(int(p["a"]), int(p["b"]), _label(p["label"])) for p in obj.get("pairs", ()))
    for p in pairs:
        if not (0 <= p.a < len(groups) and 0 <= p.b < len(groups)):
            raise ValueError(f"pair ({p.a}, {p.b}) names a group outside 0..{len(groups) - 1}")
    return FrameDetection(frame, partition, tuple(g.label for g in groups), pairs)


def read_detections(fp) -> list[FrameDetection]:
    """Parse ``write_detections`` output; a malformed record raises ParseError."""
    out = []
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=lineno) from None
        try:
            out.append(_detection_record(obj))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad record structure: {exc}", line=lineno) from None
    return out
