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
from .seqmodel import CorrelationEngine

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


def _frame_density(engine: CorrelationEngine, person: int, rest: tuple[int, ...],
                   label: str, t: int) -> float:
    """Entry-weighted marginal emission density of one member's frame features."""
    model = engine.bank.models[label]
    obs = feats.pair_observation(engine.tracks, (person,), rest, t)
    per_state = np.array([g.log_density(obs) for g in model.marginal])
    with np.errstate(divide="ignore"):
        return float(logsumexp(np.log(model.entry) + per_state))


def member_log_scores(
    engine: CorrelationEngine, group, label: str, t: int
) -> dict[int, float]:
    """Log of density(member | activity) * exp(sum of others' correlations to it)."""
    members = feats.as_entity(group)
    if len(members) < 2:
        return {m: 0.0 for m in members}
    profs = engine.profiles(
        [((j,), (i,)) for i in members for j in members if j != i], t
    )
    col = engine.column[label]
    scores = {}
    for i in members:
        rest = tuple(m for m in members if m != i)
        co_sum = 0.0
        for j in rest:
            p = profs.get(((j,), (i,)))
            if p is not None:
                co_sum += p[col]
        scores[i] = _frame_density(engine, i, rest, label, t) + co_sum
    return scores


def p_gr(engine: CorrelationEngine, group, label: str, t: int) -> GroupRepresentative:
    """The highest-scoring actual member; ties go to the smallest person id."""
    members = feats.as_entity(group)
    if not members:
        raise ValueError("empty group")
    if len(members) == 1:
        return GroupRepresentative(P_KIND, members, members, person=members[0])
    scores = member_log_scores(engine, group, label, t)
    best = max(sorted(members), key=lambda m: (scores[m], -m))
    return GroupRepresentative(P_KIND, members, (best,), person=best)


def v_gr(group) -> GroupRepresentative:
    """The average of all members in feature space."""
    members = feats.as_entity(group)
    if not members:
        raise ValueError("empty group")
    return GroupRepresentative(V_KIND, members, members)


def sv_gr(
    engine: CorrelationEngine, group, label: str, t: int, tr: float
) -> GroupRepresentative:
    """Average of members whose normalized score exceeds the threshold.

    Scores are normalized to sum to one across the group; an empty
    representative subset falls back to the whole-group average.
    """
    members = feats.as_entity(group)
    if not members:
        raise ValueError("empty group")
    if len(members) == 1:
        return GroupRepresentative(SV_KIND, members, members)
    scores = member_log_scores(engine, group, label, t)
    logs = np.array([scores[m] for m in members])
    norm = np.exp(logs - logsumexp(logs))
    subset = tuple(m for m, v in zip(members, norm) if v > tr)
    if not subset:
        return GroupRepresentative(SV_KIND, members, members, fallback=True)
    return GroupRepresentative(SV_KIND, members, subset)


def make_representative(
    kind: str, engine: CorrelationEngine, group, label: str, t: int, tr: float
) -> GroupRepresentative:
    if kind == P_KIND:
        return p_gr(engine, group, label, t)
    if kind == V_KIND:
        return v_gr(group)
    if kind == SV_KIND:
        return sv_gr(engine, group, label, t, tr)
    raise ValueError(f"unknown representative kind {kind!r}")
