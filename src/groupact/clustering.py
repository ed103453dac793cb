"""Seed-centered clustering of people into symmetric groups.

Seeds are people with a sudden body-size change or pairs whose mutual
correlation exceeds a threshold under one shared grouping label.  Seeds with
all-pairs label agreement merge; each seed's members are averaged per frame
into a seed representative, and everyone else joins the representative that
correlates best under a grouping label, or stays a singleton.  Only
person-to-representative values are consulted in the assignment step, which
sidesteps the asymmetry of the correlation metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import features as feats
from .seqmodel import CorrelationEngine
from .taxonomy import SINGLE, is_grouping


@dataclass(frozen=True)
class ClusterSeed:
    """A nucleus of one symmetric group.

    ``kind`` is "active" (single person with body-size change), "pair"
    (mutual high correlation), or "merged".  ``active_members`` records which
    members were active-person seeds; ``strength`` is the binding pair
    correlation (or the body-size change for active seeds), used only to
    resolve overlap conflicts deterministically.
    """

    members: tuple[int, ...]
    kind: str
    label: str | None = None
    active_members: tuple[int, ...] = ()
    strength: float = 0.0


@dataclass(frozen=True)
class GroupAssignment:
    members: tuple[int, ...]
    seed_members: tuple[int, ...]
    label: str | None


@dataclass(frozen=True)
class Partition:
    """Disjoint, exhaustive assignment of observable persons at one frame."""

    frame: int
    persons: tuple[int, ...]
    groups: tuple[GroupAssignment, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for g in self.groups:
            if seen.intersection(g.members):
                raise ValueError(f"overlapping groups at frame {self.frame}")
            seen.update(g.members)
        if seen != set(self.persons):
            raise ValueError(f"partition does not cover the frame-{self.frame} universe")

    def member_sets(self) -> list[frozenset[int]]:
        return [frozenset(g.members) for g in self.groups]


# (subject, target) -> profile row in ``engine.labels`` order, as from ``engine.profiles``
ProfileMap = dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray | None]


def detect_seeds(
    engine: CorrelationEngine, profiles: ProfileMap, t: int, tc: float, to: float
) -> list[ClusterSeed]:
    """Active-person seeds plus mutually high-correlation pair seeds at frame t.

    ``profiles`` holds the person-pair profiles of frame ``t``.  A profile's
    label is its largest column; ties go to the smallest label.
    """
    tracks = engine.tracks
    present = tracks.observable_persons(t)
    seeds: list[ClusterSeed] = []
    changes = feats.body_size_change(tracks, list(present), t)
    for i, change in zip(present, changes):
        if change > tc:
            seeds.append(ClusterSeed((i,), "active", None, (i,), change))
    for ia, a in enumerate(present):
        for b in present[ia + 1 :]:
            pab = profiles.get(((a,), (b,)))
            pba = profiles.get(((b,), (a,)))
            if pab is None or pba is None:
                continue
            col = pab.argmax()
            if col != pba.argmax() or not is_grouping(engine.labels[col]):
                continue
            if pab[col] > to and pba[col] > to:
                strength = float(min(pab[col], pba[col]))
                seeds.append(ClusterSeed((a, b), "pair", engine.labels[col], (), strength))
    return seeds


def _cross_label_agreement(
    members_a, label_a, members_b, label_b, engine: CorrelationEngine, profiles: ProfileMap
) -> str | None:
    """The single grouping label all cross pairs agree on, or None."""
    if label_a is not None and label_b is not None and label_a != label_b:
        return None
    candidate = label_a or label_b
    for x in members_a:
        for y in members_b:
            if x == y:
                continue
            for i, j in ((x, y), (y, x)):
                p = profiles.get(((i,), (j,)))
                if p is None:
                    return None
                lbl = engine.labels[p.argmax()]
                if candidate is None:
                    candidate = lbl
                if lbl != candidate:
                    return None
    if candidate is None or not is_grouping(candidate):
        return None
    return candidate


def merge_seeds(
    seeds: list[ClusterSeed],
    engine: CorrelationEngine,
    profiles: ProfileMap,
) -> list[ClusterSeed]:
    """Merge seeds whose cross labels all agree on one grouping activity.

    Merging requires agreement over every ordered cross pair, so chained
    merges still imply all-pairs consistency inside the final seed.  Seeds
    that overlap but cannot merge are resolved in favour of the stronger
    seed; a stripped seed survives only with two or more members or an
    active remnant.
    """
    work = sorted(seeds, key=lambda s: (min(s.members), len(s.members), s.members))
    changed = True
    while changed:
        changed = False
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                a, b = work[i], work[j]
                lbl = _cross_label_agreement(a.members, a.label, b.members, b.label, engine, profiles)
                if lbl is None:
                    continue
                work[i] = ClusterSeed(
                    tuple(sorted(set(a.members) | set(b.members))), "merged", lbl,
                    tuple(sorted(set(a.active_members) | set(b.active_members))),
                    max(a.strength, b.strength),
                )
                del work[j]
                changed = True
                break
            if changed:
                break

    # disjointness: stronger seeds keep contested members
    claimed: set[int] = set()
    out = []
    for s in sorted(work, key=lambda s: (-s.strength, min(s.members))):
        kept = set(s.members) - claimed
        if not kept:
            continue
        label = s.label
        if len(kept) < len(s.members) and len(kept) < 2:
            # stripped by a stronger overlapping seed to one member
            if not kept & set(s.active_members):
                continue
            label = None  # lone active remnant loses the pair label
        claimed |= kept
        members = tuple(sorted(kept))
        kind = "merged" if s.kind == "merged" else ("pair" if len(members) > 1 else "active")
        out.append(replace(
            s, members=members, kind=kind, label=label,
            active_members=tuple(sorted(kept & set(s.active_members))),
        ))
    out.sort(key=lambda s: s.members)
    return out


def assign_remaining(engine: CorrelationEngine, t: int, seeds: list[ClusterSeed]) -> Partition:
    """Attach non-seed people to their best representative, or leave them single.

    A seed's representative is the per-frame average of its members (the
    entity ``seed.members``).  Person i joins the representative K with the
    highest correlation value under i's best label toward K, provided that
    label is a grouping activity; only person-to-representative values are
    used.
    """
    present = engine.tracks.observable_persons(t)
    seeded = {m for s in seeds for m in s.members}
    remaining = [p for p in present if p not in seeded]
    joined: dict[int, list[int]] = {i: [] for i in range(len(seeds))}
    items = [((p,), s.members) for p in remaining for s in seeds]
    profs = engine.profiles(items, t) if items else {}
    for p in remaining:
        best_idx = None
        best_val = -1.0
        for idx, s in enumerate(seeds):
            prof = profs.get(((p,), s.members))
            if prof is None:
                continue
            col = prof.argmax()
            if is_grouping(engine.labels[col]) and prof[col] > best_val:
                best_val, best_idx = prof[col], idx
        if best_idx is not None:
            joined[best_idx].append(p)

    groups = []
    for idx, seed in enumerate(seeds):
        members = tuple(sorted(set(seed.members) | set(joined[idx])))
        label = seed.label
        if len(members) == 1 and label is None:
            label = SINGLE
        groups.append(GroupAssignment(members, seed.members, label))
    assigned_all = {m for g in groups for m in g.members}
    for p in present:
        if p not in assigned_all:
            groups.append(GroupAssignment((p,), (), SINGLE))
    groups.sort(key=lambda g: g.members)
    return Partition(t, tuple(present), tuple(groups))
