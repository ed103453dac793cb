"""Track, annotation, and model-bank file handling.

Tracks are line-oriented CSV ``frame,person,x,y,w,h`` with ``#`` comments.
Annotations are JSON records, one per line.  Model banks are versioned JSON
documents whose floats round-trip exactly.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass
from itertools import starmap
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .taxonomy import TaxonomyError, level

MODEL_FORMAT_VERSION = 1
MAX_FRAME = 2**63 - 1  # frames are stored as int64
# sample bounds in px, within which no feature overflows a float
COORD_MAX = 1e9  # on |x| and |y|
SIZE_MIN, SIZE_MAX = 1e-9, 1e9  # on w and h
_BOUNDS = f"|x|, |y| <= {COORD_MAX:g} and {SIZE_MIN:g} <= w, h <= {SIZE_MAX:g}"
_NO_SAMPLES = (np.zeros(0, dtype=np.int64), np.zeros((4, 0)))
log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed input data; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class MbbSample:
    """One minimum-bounding-box observation of a person at a frame."""

    frame: int
    person: int
    x: float
    y: float
    w: float
    h: float


class TrackSet:
    """Per-person box samples, sorted by frame, with explicit gaps.

    Immutable after construction.  Each person's samples are one sorted
    ``int64`` frame array and one (4, n) array of x, y, w, h, so memory
    follows the samples, not the frame span; lookups are binary searches.
    """

    def __init__(self, samples: Iterable[MbbSample], warnings: Iterable[str] = ()):
        by_person: dict[int, list[MbbSample]] = {}
        for s in samples:
            if not 0 <= s.frame <= MAX_FRAME:
                raise ParseError(f"frame {s.frame} outside 0..{MAX_FRAME}")
            by_person.setdefault(s.person, []).append(s)
        self._arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for person, rows in by_person.items():
            rows.sort(key=attrgetter("frame"))
            frames = np.fromiter(map(attrgetter("frame"), rows), np.int64, len(rows))
            dup = np.flatnonzero(frames[1:] == frames[:-1])
            if dup.size:
                raise ParseError(f"duplicate sample for person {person} at frame {frames[dup[0]]}")
            xywh = np.stack([np.fromiter(map(attrgetter(c), rows), float, len(rows)) for c in "xywh"])
            bad = np.flatnonzero(~_in_bounds(*xywh))
            if bad.size:
                i = bad[0]
                raise ParseError(f"sample {tuple(xywh[:, i].tolist())} of person {person} "
                                 f"at frame {frames[i]} outside {_BOUNDS}")
            frames.flags.writeable = xywh.flags.writeable = False
            self._arrays[person] = (frames, xywh)
        self._persons = tuple(sorted(self._arrays))
        self.warnings = tuple(warnings)

    @property
    def persons(self) -> tuple[int, ...]:
        return self._persons

    @property
    def frame_range(self) -> tuple[int, int] | None:
        ends = [int(f[i]) for f, _ in self._arrays.values() for i in (0, -1)]
        return (min(ends), max(ends)) if ends else None

    def __len__(self) -> int:
        return sum(f.size for f, _ in self._arrays.values())

    def sample(self, person: int, frame: int) -> MbbSample | None:
        frames, xywh = self.person_arrays(person)
        i = int(frames.searchsorted(frame))
        found = i < frames.size and frames[i] == frame
        return MbbSample(int(frame), person, *xywh[:, i].tolist()) if found else None

    def has(self, person: int, frame: int) -> bool:
        return self.sample(person, frame) is not None

    def observable(self, person: int, frame: int) -> bool:
        """True when features at ``frame`` exist (sample here and one frame back)."""
        return self.has(person, frame) and self.has(person, frame - 1)

    def observable_persons(self, frame: int) -> tuple[int, ...]:
        return tuple(p for p in self._persons if self.observable(p, frame))

    def person_arrays(self, person: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only sorted frames and (4, n) x, y, w, h of one person; empty if unknown."""
        return self._arrays.get(person, _NO_SAMPLES)

    def _rows(self) -> Iterator[tuple]:
        for person in self._persons:
            frames, xywh = self._arrays[person]
            for frame, x, y, w, h in zip(frames.tolist(), *xywh.tolist()):
                yield frame, person, x, y, w, h

    def iter_samples(self) -> Iterator[MbbSample]:
        return starmap(MbbSample, self._rows())


def _in_bounds(x, y, w, h):
    """Whether floats or equal-shape arrays lie within the sample bounds; NaN never does."""
    return ((abs(x) <= COORD_MAX) & (abs(y) <= COORD_MAX)
            & (SIZE_MIN <= w) & (w <= SIZE_MAX) & (SIZE_MIN <= h) & (h <= SIZE_MAX))


def _lines(text) -> Iterator[tuple[int, str]]:
    if isinstance(text, str):
        stream: Iterable[str] = io.StringIO(text)
    else:
        stream = text
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_tracks(text, strict: bool = True) -> TrackSet:
    """Parse ``frame,person,x,y,w,h`` lines into a validated TrackSet.

    Strict mode raises on the first malformed line; lenient mode skips bad
    lines, reports them in ``TrackSet.warnings`` and logs them: one warning
    with the count and the first reason, and each line at INFO.
    """
    samples: list[MbbSample] = []
    seen: set[tuple[int, int]] = set()
    warnings: list[str] = []

    def fail(msg: str, lineno: int) -> None:
        if strict:
            raise ParseError(msg, line=lineno)
        warnings.append(f"line {lineno}: {msg}")
        log.info("skipped line %d: %s", lineno, msg)

    for lineno, line in _lines(text):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 6:
            fail(f"expected 6 fields, got {len(parts)}", lineno)
            continue
        try:
            frame = int(parts[0])
            person = int(parts[1])
            x, y, w, h = (float(v) for v in parts[2:])
        except ValueError:
            fail(f"malformed numeric field in {line!r}", lineno)
            continue
        if not 0 <= frame <= MAX_FRAME:
            fail(f"frame {frame} outside 0..{MAX_FRAME}", lineno)
            continue
        if not _in_bounds(x, y, w, h):
            fail(f"sample {(x, y, w, h)} of person {person} at frame {frame} outside {_BOUNDS}", lineno)
            continue
        if (frame, person) in seen:
            fail(f"duplicate sample for person {person} at frame {frame}", lineno)
            continue
        seen.add((frame, person))
        samples.append(MbbSample(frame, person, x, y, w, h))
    if warnings:
        log.warning("skipped %d malformed track lines; first: %s", len(warnings), warnings[0])
    return TrackSet(samples, warnings=warnings)


def write_tracks(tracks: TrackSet, fp) -> None:
    # (frame, person) is unique, so the sort never reaches the coordinates
    for frame, person, x, y, w, h in sorted(tracks._rows()):
        fp.write(f"{frame},{person},{x!r},{y!r},{w!r},{h!r}\n")


@dataclass(frozen=True)
class AnnotationRecord:
    """One labelled interval: a symmetric group or an inter-group relation."""

    kind: str  # "sym" | "asym"
    label: str
    start: int
    end: int
    members: tuple[int, ...] | None = None
    groups: tuple[str, str] | None = None
    group_id: str | None = None

    def active_at(self, frame: int) -> bool:
        return self.start <= frame <= self.end


class AnnotationSet:
    """Validated collection of annotation records."""

    def __init__(self, records: Iterable[AnnotationRecord]):
        recs = tuple(records)
        declared: set[str] = set()
        for i, r in enumerate(recs):
            where = f"record {i}"
            level(r.label)  # TaxonomyError for a label outside the taxonomy
            if r.kind == "sym":
                if not r.members:
                    raise ParseError(f"{where}: symmetric record needs members")
                if r.group_id is not None:
                    declared.add(r.group_id)
            elif r.kind == "asym":
                if not r.groups or len(r.groups) != 2:
                    raise ParseError(f"{where}: asymmetric record needs exactly two groups")
                for g in r.groups:
                    if g not in declared:
                        raise ParseError(f"{where}: reference to undeclared group {g!r}")
            else:
                raise ParseError(f"{where}: unknown record kind {r.kind!r}")
            if r.end < r.start:
                raise ParseError(f"{where}: empty interval [{r.start}, {r.end}]")
        self.records = recs

    def __len__(self) -> int:
        return len(self.records)

    def sym_records(self) -> tuple[AnnotationRecord, ...]:
        return tuple(r for r in self.records if r.kind == "sym")

    def asym_records(self) -> tuple[AnnotationRecord, ...]:
        return tuple(r for r in self.records if r.kind == "asym")

    def group_members(self, group_id: str, frame: int) -> tuple[int, ...] | None:
        for r in self.records:
            if r.kind == "sym" and r.group_id == group_id and r.active_at(frame):
                return r.members
        return None

    def frame_range(self) -> tuple[int, int] | None:
        if not self.records:
            return None
        return (min(r.start for r in self.records), max(r.end for r in self.records))


def parse_annotations(text) -> AnnotationSet:
    """Parse one-JSON-record-per-line annotations.

    Record fields: ``kind`` (sym|asym), ``label``, ``frames`` ([start, end],
    inclusive), and ``members``+``group_id`` (sym) or ``groups`` (asym).
    """
    records = []
    for lineno, line in _lines(text):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=lineno) from None
        try:
            kind = obj["kind"]
            label = obj["label"]
            start, end = (int(v) for v in obj["frames"])
            members = tuple(int(m) for m in obj["members"]) if "members" in obj else None
            groups = tuple(obj["groups"]) if "groups" in obj else None
            group_id = obj.get("group_id")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad record structure: {exc}", line=lineno) from None
        records.append(
            AnnotationRecord(
                kind=kind, label=label, start=start, end=end,
                members=members, groups=groups, group_id=group_id,
            )
        )
    try:
        return AnnotationSet(records)
    except TaxonomyError as exc:
        raise ParseError(str(exc)) from None


def write_annotations(annotations: AnnotationSet, fp) -> None:
    for r in annotations.records:
        obj: dict = {"kind": r.kind, "label": r.label, "frames": [r.start, r.end]}
        if r.members is not None:
            obj["members"] = list(r.members)
        if r.group_id is not None:
            obj["group_id"] = r.group_id
        if r.groups is not None:
            obj["groups"] = list(r.groups)
        fp.write(json.dumps(obj) + "\n")


def save_model(bank, fp) -> None:
    """Serialise a model bank as versioned JSON with exact float round-trip."""
    from .seqmodel import bank_to_payload

    doc = {"format_version": MODEL_FORMAT_VERSION, "bank": bank_to_payload(bank)}
    json.dump(doc, fp, allow_nan=False, indent=1)
    fp.write("\n")


def load_model(fp):
    """Load a model bank, rejecting unknown versions and corrupt numerics."""
    from .seqmodel import bank_from_payload

    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"unparseable model file: {exc}") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ModelFormatError("missing format_version")
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} (expected {MODEL_FORMAT_VERSION})"
        )
    try:
        return bank_from_payload(doc["bank"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(f"corrupt model file: {exc}") from None
