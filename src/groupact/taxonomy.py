"""Activity taxonomy: the symmetric/asymmetric split and grouping semantics."""

from __future__ import annotations

from dataclasses import dataclass

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"

SINGLE = "single"
IGNORE = "Ignore"


class TaxonomyError(ValueError):
    pass


@dataclass(frozen=True)
class Taxonomy:
    """Assigns every activity label a level and a grouping behaviour.

    ``levels`` maps label -> "symmetric" | "asymmetric".  ``non_grouping``
    lists symmetric labels that never bind people into one group: mutual
    non-interaction and the unattached-person label.  Such labels still get
    correlation models (except ``single``, which is purely structural).
    """

    levels: dict[str, str]
    non_grouping: frozenset[str] = frozenset({IGNORE, SINGLE})

    def __post_init__(self) -> None:
        for label, level in self.levels.items():
            if level not in (SYMMETRIC, ASYMMETRIC):
                raise TaxonomyError(f"unknown level {level!r} for activity {label!r}")
        for label in self.non_grouping:
            if label in self.levels and self.levels[label] != SYMMETRIC:
                raise TaxonomyError(f"non-grouping label {label!r} must be symmetric")

    def __contains__(self, label: str) -> bool:
        return label in self.levels

    def level(self, label: str) -> str:
        try:
            return self.levels[label]
        except KeyError:
            raise TaxonomyError(f"unknown activity label {label!r}") from None

    def is_symmetric(self, label: str) -> bool:
        return self.level(label) == SYMMETRIC

    def is_grouping(self, label: str) -> bool:
        """True when a shared label of this kind puts people in one group."""
        return self.is_symmetric(label) and label not in self.non_grouping

    def asymmetric_labels(self) -> list[str]:
        return sorted(l for l in self.levels if self.levels[l] == ASYMMETRIC)

    def grouping_labels(self) -> list[str]:
        return sorted(l for l in self.levels if self.is_grouping(l))

    def modelable_labels(self) -> list[str]:
        """Labels that carry a pairwise correlation model (all but ``single``)."""
        return sorted(l for l in self.levels if l != SINGLE)

    def intergroup_candidates(self) -> list[str]:
        """Labels eligible for the relation between two groups.

        Asymmetric activities plus the symmetric non-interaction label.
        """
        out = set(self.asymmetric_labels())
        if IGNORE in self.levels:
            out.add(IGNORE)
        return sorted(out)

    def validate_label(self, label: str) -> None:
        if label not in self.levels:
            raise TaxonomyError(f"unknown activity label {label!r}")


def default_taxonomy() -> Taxonomy:
    """The stock nine-activity taxonomy used throughout the pipeline."""
    return Taxonomy(
        levels={
            "InGroup": SYMMETRIC,
            "WalkTogether": SYMMETRIC,
            "Fight": SYMMETRIC,
            "RunTogether": SYMMETRIC,
            IGNORE: SYMMETRIC,
            SINGLE: SYMMETRIC,
            "Approach": ASYMMETRIC,
            "Split": ASYMMETRIC,
            "Chase": ASYMMETRIC,
        }
    )
