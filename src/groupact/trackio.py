"""Track, annotation, and model-bank file handling.

Tracks are line-oriented CSV ``frame,person,x,y,w,h`` with ``#`` comments.
Annotations are JSON records, one per line.  Model banks are versioned JSON
documents whose floats round-trip exactly.
"""

from __future__ import annotations

import io
import json
import logging
from array import array
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Iterator

import numpy as np

from .taxonomy import TaxonomyError, level

MODEL_FORMAT_VERSION = 1
MAX_FRAME = 2**63 - 1  # frames are stored as int64
# sample bounds in px, within which no feature overflows a float
COORD_MAX = 1e9  # on |x| and |y|
SIZE_MIN, SIZE_MAX = 1e-9, 1e9  # on w and h
_BOX_MIN = np.array([-COORD_MAX, -COORD_MAX, SIZE_MIN, SIZE_MIN])  # x, y, w, h
_BOX_MAX = np.array([COORD_MAX, COORD_MAX, SIZE_MAX, SIZE_MAX])
_BOUNDS = f"|x|, |y| <= {COORD_MAX:g} and {SIZE_MIN:g} <= w, h <= {SIZE_MAX:g}"
_SORT_KEY = np.dtype([("person", np.int64), ("frame", np.int64), ("row", np.intp)])  # sorts field by field
_NO_SAMPLES = (np.zeros(0, dtype=np.int64), np.zeros((4, 0)))
_WRITE_ROWS = 1024  # samples formatted at a time by write_tracks
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
        rows = [(s.frame, s.person, s.x, s.y, s.w, s.h) for s in samples]
        frame, person, *xywh = zip(*rows) if rows else [()] * 6
        self._arrays, self.warnings = _column_arrays(frame, person, xywh), tuple(warnings)

    @classmethod
    def from_columns(cls, frame, person, xywh) -> TrackSet:
        """The samples ``(frame[i], person[i], *xywh[:, i])``, checked as the constructor checks samples."""
        tracks = cls(())  # the constructor takes samples: fill an empty set
        tracks._arrays = _column_arrays(frame, person, xywh)
        return tracks

    @property
    def persons(self) -> tuple[int, ...]:
        return tuple(self._arrays)

    @property
    def frame_range(self) -> tuple[int, int] | None:
        ends = [int(f[i]) for f, _ in self._arrays.values() for i in (0, -1)]
        return (min(ends), max(ends)) if ends else None

    def __len__(self) -> int:
        return sum(f.size for f, _ in self._arrays.values())

    def has(self, person: int, frame: int) -> bool:
        frames = self.person_arrays(person)[0]
        i = int(frames.searchsorted(frame))
        return i < frames.size and bool(frames[i] == frame)

    def observable(self, person: int, frame: int) -> bool:
        """True when features at ``frame`` exist (sample here and one frame back)."""
        return self.has(person, frame) and self.has(person, frame - 1)

    def observable_persons(self, frame: int) -> tuple[int, ...]:
        return tuple(p for p in self._arrays if self.observable(p, frame))

    def person_arrays(self, person: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only sorted frames and (4, n) x, y, w, h of one person; empty if unknown."""
        return self._arrays.get(person, _NO_SAMPLES)

    def _rows(self) -> Iterator[tuple]:
        for person, (frames, xywh) in self._arrays.items():
            for frame, x, y, w, h in zip(frames.tolist(), *xywh.tolist()):
                yield frame, person, x, y, w, h

    def iter_samples(self) -> Iterator[MbbSample]:
        return starmap(MbbSample, self._rows())


def _ints(values) -> np.ndarray:
    """Ints as ``int64``, or as Python ints in an object array when ``int64`` cannot hold one."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _column_arrays(frame, person, xywh) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """``_build`` over samples numbered from 1; the first broken one raises, without a line."""
    frame, broken = _ints(frame), []
    arrays = _build(frame, _ints(person), np.arange(1, frame.size + 1), np.asarray(xywh, float).T, broken)
    if broken:
        raise ParseError(min(broken)[1])
    return arrays


def _build(frame, person, line, box, skipped: list[tuple[int, str]]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Read-only per-person (frames, xywh) arrays, in person order, of the rows
    (frame, person, line, box) that keep the sample rules; ``line`` ascends.

    A row breaks the first rule it fails: its frame lies in 0..MAX_FRAME, its
    person id fits int64, its box lies within the sample bounds, and no earlier
    row that keeps the other rules has its (person, frame).  Adds the (line,
    reason) of each broken row to ``skipped``.
    """
    kept = np.ones(line.size, dtype=bool)
    broken = []

    def rule(holds, reason):
        broken.extend((int(line[r]), reason(r)) for r in np.flatnonzero(kept & ~holds).tolist())
        kept[:] &= holds

    rule((0 <= frame) & (frame <= MAX_FRAME), lambda r: f"frame {frame[r]} outside 0..{MAX_FRAME}")
    rule((-(2**63) <= person) & (person < 2**63), lambda r: f"person {person[r]} outside the int64 range")
    rule(((_BOX_MIN <= box) & (box <= _BOX_MAX)).all(axis=1),  # NaN never holds
         lambda r: f"sample {tuple(box[r].tolist())} of person {person[r]} at frame {frame[r]} outside {_BOUNDS}")
    rows = np.flatnonzero(kept)
    order = np.empty(rows.size, _SORT_KEY)
    order["person"], order["frame"], order["row"] = person[rows], frame[rows], rows
    order.sort(kind="stable")
    p, f, rows = order["person"], order["frame"], order["row"]
    once = np.ones(rows.size, dtype=bool)  # the sort is stable: a run's first row has the earliest line
    once[1:] = (p[1:] != p[:-1]) | (f[1:] != f[:-1])
    unique = np.ones(line.size, dtype=bool)
    unique[rows[~once]] = False
    rule(unique, lambda r: f"duplicate sample for person {person[r]} at frame {frame[r]}")
    skipped += broken
    p, f, xywh = p[once], f[once], box.take(rows[once], axis=0).T
    f.flags.writeable = xywh.flags.writeable = False
    cuts = [0, *(np.flatnonzero(p[1:] != p[:-1]) + 1).tolist(), p.size]
    return {int(p[a]): (f[a:b], xywh[:, a:b]) for a, b in zip(cuts, cuts[1:]) if a < b}


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

    ``text`` is a string or a text file open for reading, read line by line
    into typed columns.  Strict mode raises on the first bad line; lenient
    mode skips bad lines, reports them in ``TrackSet.warnings`` and logs
    them: one warning with the count and the first reason, and each at INFO.
    """
    ints, box = array("q"), array("d")  # frame, person, line; x, y, w, h
    skipped: list[tuple[int, str]] = []
    for lineno, line in _lines(text):
        parts = line.split(",")
        if len(parts) != 6:
            skipped.append((lineno, f"expected 6 fields, got {len(parts)}"))
            continue
        try:
            frame, person, *xywh = int(parts[0]), int(parts[1]), *map(float, parts[2:])
            ints.extend((frame, person, lineno))
        except ValueError:
            skipped.append((lineno, f"malformed numeric field in {line!r}"))
            continue
        except OverflowError:  # int64 cannot hold the frame or person: keep the ints in a list
            del ints[len(box) // 4 * 3:]
            ints = [*ints, frame, person, lineno]
        box.extend(xywh)
    arrays = _build(*_ints(ints).reshape(-1, 3).T, np.asarray(box).reshape(-1, 4), skipped)
    skipped.sort()
    if strict and skipped:
        raise ParseError(skipped[0][1], line=skipped[0][0])
    for lineno, msg in skipped:
        log.info("skipped line %d: %s", lineno, msg)
    warnings = [f"line {lineno}: {msg}" for lineno, msg in skipped]
    if warnings:
        log.warning("skipped %d malformed track lines; first: %s", len(warnings), warnings[0])
    tracks = TrackSet((), warnings)
    tracks._arrays = arrays
    return tracks


def write_tracks(tracks: TrackSet, fp) -> None:
    """Write the samples in (frame, person) order, formatting ``_WRITE_ROWS`` at a time."""
    columns = [(np.full(f.size, p, dtype=np.int64), f, xywh) for p, (f, xywh) in tracks._arrays.items()]
    if not columns:
        return
    person, frame, xywh = (np.concatenate(c, axis=-1) for c in zip(*columns))
    order = np.lexsort((person, frame))
    for i in range(0, order.size, _WRITE_ROWS):
        rows = order[i:i + _WRITE_ROWS]
        # Python floats from tolist(): their repr is the shortest text that reads back the same
        fp.writelines(f"{f},{p},{x!r},{y!r},{w!r},{h!r}\n" for f, p, x, y, w, h in
                      zip(frame[rows].tolist(), person[rows].tolist(), *xywh[:, rows].tolist()))


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


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; TypeError naming ``what`` for a bool, float, string or other value."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number; TypeError naming ``what`` for a bool, string or other value."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} {value!r} is not a number")
    return float(value)


def json_numbers(values, what: str) -> np.ndarray:
    """The JSON numbers of ``values``, nested lists of any depth, as a float
    array; TypeError naming ``what`` for an entry that is not a number."""
    stack = [values]
    while stack:
        v = stack.pop()
        if type(v) is list:
            stack.extend(v)
        else:
            json_number(v, f"{what} entry")
    return np.asarray(values, dtype=float)


def json_str(value, what: str) -> str:
    """``value`` if it is a JSON string; TypeError naming ``what`` for a list or other value."""
    if not isinstance(value, str):
        raise TypeError(f"{what} {value!r} is not a string")
    return value


def json_groups(values, what: str) -> tuple[str, str]:
    """The two JSON strings of a ``groups`` list; TypeError for a string or a list of another length."""
    if not isinstance(values, list) or len(values) != 2:
        raise TypeError(f"{what} {values!r} is not a list of two group ids")
    return tuple(json_str(v, f"{what} entry") for v in values)


def json_ids(values, what: str) -> tuple[int, ...]:
    """The JSON integers ``values``; ValueError when one repeats."""
    ids = tuple(json_int(v, f"{what} entry") for v in values)
    if len(set(ids)) != len(ids):
        raise ValueError(f"{what} {list(ids)} repeat an id")
    return ids


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
            kind = json_str(obj["kind"], "kind")
            label = json_str(obj["label"], "label")
            start, end = (json_int(v, "frame") for v in obj["frames"])
            members = json_ids(obj["members"], "members") if "members" in obj else None
            groups = json_groups(obj["groups"], "groups") if "groups" in obj else None
            group_id = None if obj.get("group_id") is None else json_str(obj["group_id"], "group_id")
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
