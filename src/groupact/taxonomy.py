"""The fixed activity taxonomy: the symmetric/asymmetric split and grouping semantics.

``LEVELS`` maps every activity label to "symmetric" or "asymmetric".
``NON_GROUPING`` lists the symmetric labels that never bind people into one
group: mutual non-interaction and the unattached-person label.  Such labels
still get correlation models (except ``single``, which is purely structural).
"""

from __future__ import annotations

from types import MappingProxyType

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"

SINGLE = "single"
IGNORE = "Ignore"


class TaxonomyError(ValueError):
    pass


LEVELS = MappingProxyType({
    "InGroup": SYMMETRIC,
    "WalkTogether": SYMMETRIC,
    "Fight": SYMMETRIC,
    "RunTogether": SYMMETRIC,
    IGNORE: SYMMETRIC,
    SINGLE: SYMMETRIC,
    "Approach": ASYMMETRIC,
    "Split": ASYMMETRIC,
    "Chase": ASYMMETRIC,
})
NON_GROUPING = frozenset({IGNORE, SINGLE})


def level(label: str) -> str:
    try:
        return LEVELS[label]
    except KeyError:
        raise TaxonomyError(f"unknown activity label {label!r}") from None


def is_symmetric(label: str) -> bool:
    return level(label) == SYMMETRIC


def is_grouping(label: str) -> bool:
    """True when a shared label of this kind puts people in one group."""
    return is_symmetric(label) and label not in NON_GROUPING


GROUPING_LABELS = tuple(sorted(l for l in LEVELS if is_grouping(l)))
# labels that carry a pairwise correlation model (all but ``single``)
MODELABLE_LABELS = tuple(sorted(l for l in LEVELS if l != SINGLE))
# labels eligible for the relation between two groups: the asymmetric
# activities plus the symmetric non-interaction label
INTERGROUP_CANDIDATES = tuple(sorted(l for l in LEVELS if LEVELS[l] == ASYMMETRIC or l == IGNORE))
