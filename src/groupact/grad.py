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
from dataclasses import dataclass, field, replace

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
from .seqmodel import ActivityModelBank, CorrelationEngine, DataError, check_thresholds, check_window
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


def _pair_sum(engine: CorrelationEngine, subjects, targets, label: str, t: int) -> float:
    total = 0.0
    for j in subjects:
        for i in targets:
            p = engine.profile((j,), (i,), t)
            if p is not None:
                total += p.values.get(label, 0.0)
    return total


def recognize_symmetric(
    bank: ActivityModelBank,
    tracks: TrackSet,
    group: GroupAssignment,
    t: int,
    variant: int,
    engine: CorrelationEngine | None = None,
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
    if engine is None:
        engine = CorrelationEngine(bank, tracks)
    candidates = bank.taxonomy.grouping_labels()
    if variant == 1 and group.label is not None:
        return group.label
    scores = {}
    for label in candidates:
        prior = _pair_sum(engine, members, members, label, t)
        if variant == 2:
            glik = engine.group_score(label, members, t)
            if glik is None:
                continue
            scores[label] = glik + prior
        else:
            scores[label] = prior
    if not scores:  # no group models available: fall back to the prior only
        for label in candidates:
            scores[label] = _pair_sum(engine, members, members, label, t)
    best = None
    best_v = -np.inf
    for label in sorted(scores):
        if scores[label] > best_v:
            best, best_v = label, scores[label]
    return best if best is not None else SINGLE


def _relation_scores(
    bank: ActivityModelBank,
    slow: GroupContext,
    fast: GroupContext,
    t: int,
    engine: CorrelationEngine,
) -> dict[str, float]:
    """Log score per candidate: representative correlation times cross-pair prior."""
    candidates = bank.taxonomy.intergroup_candidates()
    gr_prof = engine.profile(fast.rep.members, slow.rep.members, t)
    scores = {}
    for label in candidates:
        if label not in bank.models:
            continue
        prior = _pair_sum(engine, fast.members, slow.members, label, t)
        if gr_prof is None:
            scores[label] = prior
        else:
            with np.errstate(divide="ignore"):
                scores[label] = float(np.log(gr_prof.values[label])) + prior
    return scores


def _order_groups(a: GroupContext, b: GroupContext) -> tuple[GroupContext, GroupContext]:
    """Slower group first; speed ties break on the smaller group index."""
    if (a.speed, a.index) <= (b.speed, b.index):
        return a, b
    return b, a


def recognize_intergroup(
    bank: ActivityModelBank,
    tracks: TrackSet,
    a: GroupContext,
    b: GroupContext,
    t: int,
    engine: CorrelationEngine | None = None,
) -> PairLabel:
    """Relation label for a group pair from their representatives."""
    if engine is None:
        engine = CorrelationEngine(bank, tracks)
    slow, fast = _order_groups(a, b)
    scores = _relation_scores(bank, slow, fast, t, engine)
    best = None
    best_v = -np.inf
    for label in sorted(scores):
        if scores[label] > best_v:
            best, best_v = label, scores[label]
    return PairLabel(slow.index, fast.index, best)


def majority_vote_intergroup(
    bank: ActivityModelBank,
    tracks: TrackSet,
    a: GroupContext,
    b: GroupContext,
    t: int,
    engine: CorrelationEngine | None = None,
) -> PairLabel:
    """Mode over cross-pair labels; ties go to the larger summed correlation."""
    if engine is None:
        engine = CorrelationEngine(bank, tracks)
    slow, fast = _order_groups(a, b)
    candidates = [l for l in bank.taxonomy.intergroup_candidates() if l in bank.models]
    votes: list[str] = []
    sums: dict[str, float] = {l: 0.0 for l in candidates}
    for j in fast.members:
        for i in slow.members:
            prof = engine.profile((j,), (i,), t)
            if prof is None:
                continue
            best = None
            best_v = -np.inf
            for label in candidates:
                v = prof.values[label]
                sums[label] += v
                if v > best_v:
                    best, best_v = label, v
            votes.append(best)
    if not votes:
        raise DataError(f"no evaluable cross pair between groups at frame {t}")
    counts = Counter(votes)
    top = max(counts.values())
    tied = sorted(l for l, c in counts.items() if c == top)
    # max() keeps the first (lexicographically smallest) label on equal sums
    best = max(tied, key=lambda l: sums[l])
    return PairLabel(slow.index, fast.index, best)


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
    reason instead of aborting, unless ``strict`` is set.
    """
    config = config or PipelineConfig.from_bank(bank)
    if frames is None:
        rng = tracks.frame_range
        if rng is None:
            return []
        frames = range(rng[0] + 1, rng[1] + 1)
    if engine is None:
        engine = CorrelationEngine(bank, tracks, window=config.window, dt=config.dt)
    out: list[FrameDetection] = []
    for t in frames:
        try:
            out.append(_detect_frame(bank, tracks, t, config, engine))
        except (feats.ObservationUnavailable, DataError) as exc:
            if strict:
                raise
            out.append(FrameDetection(t, None, skipped=str(exc)))
    if config.smoothing:
        out = _smooth_labels(out)
    return out


def _detect_frame(
    bank: ActivityModelBank,
    tracks: TrackSet,
    t: int,
    config: PipelineConfig,
    engine: CorrelationEngine,
) -> FrameDetection:
    present = tracks.observable_persons(t)
    if not present:
        return FrameDetection(t, Partition(t, (), ()))
    profiles = engine.profiles([((a,), (b,)) for a in present for b in present if a != b], t)
    seeds = detect_seeds(bank, tracks, t, config.tc, config.to, profiles=profiles)
    seeds = merge_seeds(seeds, profiles, taxonomy=bank.taxonomy)
    partition = assign_remaining(bank, tracks, t, seeds, engine=engine)

    contexts = []
    labels = []
    for idx, grp in enumerate(partition.groups):
        label = recognize_symmetric(bank, tracks, grp, t, config.variant, engine)
        labels.append(label)
        rep = make_representative(
            config.gr, bank, tracks, grp.members, label, t, tr=config.tr, engine=engine
        )
        speed = feats.entity_average_speed(tracks, grp.members, t, config.window)
        contexts.append(GroupContext(idx, grp.members, label, rep, speed))

    pair_labels = []
    for i in range(len(contexts)):
        for j in range(i + 1, len(contexts)):
            if config.baseline == "mv":
                pl = majority_vote_intergroup(bank, tracks, contexts[i], contexts[j], t, engine)
            else:
                pl = recognize_intergroup(bank, tracks, contexts[i], contexts[j], t, engine)
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
            counts = Counter(votes)
            top = max(counts.values())
            tied = sorted(l for l, c in counts.items() if c == top)
            cur = d.group_labels[gi]
            new_group_labels.append(cur if cur in tied else tied[0])
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
            counts = Counter(votes)
            top = max(counts.values())
            tied = sorted(l for l, c in counts.items() if c == top)
            new_pairs.append(replace(pl, label=pl.label if pl.label in tied else tied[0]))
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


def read_detections(fp) -> list[FrameDetection]:
    out = []
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=lineno) from None
        frame = int(obj["frame"])
        if "skipped" in obj:
            out.append(FrameDetection(frame, None, skipped=obj["skipped"]))
            continue
        groups = []
        labels = []
        for g in obj["groups"]:
            members = tuple(sorted(int(m) for m in g["members"]))
            seed = tuple(sorted(int(m) for m in g.get("seed", ())))
            assigned = tuple(m for m in members if m not in seed)
            groups.append(GroupAssignment(members, seed, assigned, g["label"]))
            labels.append(g["label"])
        persons = tuple(sorted(m for g in groups for m in g.members))
        partition = Partition(frame, persons, tuple(groups))
        pairs = tuple(PairLabel(int(p["a"]), int(p["b"]), p["label"]) for p in obj.get("pairs", ()))
        out.append(FrameDetection(frame, partition, tuple(labels), pairs))
    return out
