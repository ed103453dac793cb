"""Group representatives: one entity standing in for a whole symmetric group.

Three flavours: the best-scoring actual member ("p"), the per-frame average
of all members ("v"), and the average of only the members whose normalized
score clears a threshold ("sv").  A member's score is the product of its
single-frame emission density under the group's activity model and the
exponentiated sum of the other members' correlations toward it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features as feats
from .gmm import logsumexp
from .seqmodel import ActivityModelBank, CorrelationEngine
from .trackio import TrackSet

P_KIND = "p"
V_KIND = "v"
SV_KIND = "sv"


@dataclass(frozen=True)
class GroupRepresentative:
    """The entity (member subset) representing a group over a window.

    ``members`` is the averaged subset: the selected person for "p", the
    whole group for "v", the representative subset for "sv" (the whole group
    again after an empty-subset fallback).
    """

    kind: str
    group: tuple[int, ...]
    members: tuple[int, ...]
    person: int | None = None
    fallback: bool = False


def _frame_density(bank: ActivityModelBank, tracks: TrackSet, person: int,
                   rest: tuple[int, ...], label: str, t: int) -> float:
    """Entry-weighted marginal emission density of one member's frame features."""
    model = bank.models[label]
    obs = feats.pair_observation(tracks, (person,), rest, t).as_array()
    per_state = np.array([g.log_density(obs) for g in model.marginal])
    with np.errstate(divide="ignore"):
        return float(logsumexp(np.log(model.entry) + per_state))


def member_log_scores(
    bank: ActivityModelBank,
    tracks: TrackSet,
    group,
    label: str,
    t: int,
    engine: CorrelationEngine | None = None,
) -> dict[int, float]:
    """Log of density(member | activity) * exp(sum of others' correlations to it)."""
    members = feats.as_entity(group)
    if len(members) < 2:
        return {m: 0.0 for m in members}
    if engine is None:
        engine = CorrelationEngine(bank, tracks)
    profs = engine.profiles(
        [((j,), (i,)) for i in members for j in members if j != i], t
    )
    scores = {}
    for i in members:
        rest = tuple(m for m in members if m != i)
        co_sum = 0.0
        for j in rest:
            p = profs.get(((j,), (i,)))
            if p is not None:
                co_sum += p.values.get(label, 0.0)
        scores[i] = _frame_density(bank, tracks, i, rest, label, t) + co_sum
    return scores


def p_gr(
    bank: ActivityModelBank,
    tracks: TrackSet,
    group,
    label: str,
    t: int,
    engine: CorrelationEngine | None = None,
) -> GroupRepresentative:
    """The highest-scoring actual member; ties go to the smallest person id."""
    members = feats.as_entity(group)
    if not members:
        raise ValueError("empty group")
    if len(members) == 1:
        return GroupRepresentative(P_KIND, members, members, person=members[0])
    scores = member_log_scores(bank, tracks, group, label, t, engine)
    best = max(sorted(members), key=lambda m: (scores[m], -m))
    return GroupRepresentative(P_KIND, members, (best,), person=best)


def v_gr(tracks: TrackSet, group) -> GroupRepresentative:
    """The average of all members in feature space."""
    members = feats.as_entity(group)
    if not members:
        raise ValueError("empty group")
    return GroupRepresentative(V_KIND, members, members)


def sv_gr(
    bank: ActivityModelBank,
    tracks: TrackSet,
    group,
    label: str,
    t: int,
    tr: float | None = None,
    engine: CorrelationEngine | None = None,
) -> GroupRepresentative:
    """Average of members whose normalized score exceeds the threshold.

    Scores are normalized to sum to one across the group; an empty
    representative subset falls back to the whole-group average.
    """
    members = feats.as_entity(group)
    if not members:
        raise ValueError("empty group")
    tr = bank.tr if tr is None else tr
    if len(members) == 1:
        return GroupRepresentative(SV_KIND, members, members)
    scores = member_log_scores(bank, tracks, group, label, t, engine)
    logs = np.array([scores[m] for m in members])
    norm = np.exp(logs - logsumexp(logs))
    subset = tuple(m for m, v in zip(members, norm) if v > tr)
    if not subset:
        return GroupRepresentative(SV_KIND, members, members, fallback=True)
    return GroupRepresentative(SV_KIND, members, subset)


def make_representative(
    kind: str,
    bank: ActivityModelBank,
    tracks: TrackSet,
    group,
    label: str,
    t: int,
    tr: float | None = None,
    engine: CorrelationEngine | None = None,
) -> GroupRepresentative:
    if kind == P_KIND:
        return p_gr(bank, tracks, group, label, t, engine)
    if kind == V_KIND:
        return v_gr(tracks, group)
    if kind == SV_KIND:
        return sv_gr(bank, tracks, group, label, t, tr, engine)
    raise ValueError(f"unknown representative kind {kind!r}")
