"""Box-track features: pairwise observation vectors, group features, body-size change.

All features derive from minimum-bounding-box samples (center x, y and box
w, h in pixels).  An "entity" here is one person or a set of people averaged
per frame into a virtual track, so seeds and group representatives plug into
the same pairwise machinery as real people.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

import numpy as np

from .trackio import TrackSet

PAIR_DIM = 6
GROUP_DIM = 5


class ObservationUnavailable(ValueError):
    """Raised when a required track sample is missing at t or t-1."""


def wrap_angle(a):
    """Wrap angles into (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    out = np.mod(a + np.pi, 2.0 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    if out.ndim == 0:
        return float(out)
    return out


def as_entity(who) -> tuple[int, ...]:
    """Normalise a person id or a collection of ids to a sorted member tuple.

    Ids are Python or numpy integers (a bool is not an id), each given at
    most once; anything else is a ValueError that names the value.  A tuple
    that is already sorted and holds only Python ints comes back as it is.
    """
    if type(who) is tuple:
        if len(who) == 1:
            if type(who[0]) is int:
                return who
        elif who and all(type(m) is int for m in who) and all(a < b for a, b in zip(who, who[1:])):
            return who
    if isinstance(who, (int, np.integer)) and not isinstance(who, bool):
        return (int(who),)
    try:
        if isinstance(who, (str, bytes, bytearray)):  # iterables of characters or bytes, not of ids
            raise TypeError
        members = list(who)
    except TypeError:
        raise ValueError(f"entity {who!r} is not a person id or a collection of ids") from None
    for m in members:
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise ValueError(f"entity {who!r} has member {m!r}, which is not an integer id")
    if not members:
        raise ValueError(f"entity {who!r} has no member")
    members = sorted(map(int, members))
    if any(a == b for a, b in zip(members, members[1:])):
        raise ValueError(f"entity {who!r} repeats a member")
    return tuple(members)


class EntityTrack:
    """Per-frame kinematics of E entities over [lo, hi], one row per entity.

    ``x``, ``y``, ``w``, ``h`` and ``usable`` are (E, n) arrays.  For a
    multi-member entity each frame holds the arithmetic mean over the members
    present at that frame; a frame is valid when at least one member has a
    sample, and usable when it and the frame before are valid (index 0 never
    is).  ``step`` and ``size_change`` give the motion from index ``i - 1`` to
    ``i`` of every entity, computed only at the indices asked for.
    """

    def __init__(self, tracks: TrackSet, entities: list[tuple[int, ...]], lo: int, hi: int):
        n = hi - lo + 1
        acc = np.zeros((4, len(entities), n))
        count = np.zeros((len(entities), n))
        for e, members in enumerate(entities):
            for m in members:
                frames, xywh = tracks.person_arrays(m)
                a, b = frames.searchsorted((lo, hi + 1)).tolist()
                at = frames[a:b] - lo
                acc[:, e, at] += xywh[:, a:b]
                count[e, at] += 1
        valid = count > 0
        self.usable = np.zeros(valid.shape, dtype=bool)
        self.usable[:, 1:] = valid[:, 1:] & valid[:, :-1]
        self.x, self.y, self.w, self.h = acc / np.maximum(count, 1.0)

    def step(self, i: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Displacement (dx, dy) and speed into frame indices ``i``."""
        dx = self.x[:, i] - self.x[:, i - 1]
        dy = self.y[:, i] - self.y[:, i - 1]
        return dx, dy, np.hypot(dx, dy)

    def size_change(self, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Relative change of box width and height into frame indices ``i``."""
        j = i - 1
        return (np.abs(self.w[:, i] - self.w[:, j]) / self.w[:, i],
                np.abs(self.h[:, i] - self.h[:, j]) / self.h[:, i])


def member_tracks(tracks: TrackSet, members, lo: int, hi: int) -> EntityTrack:
    """One track over [lo, hi] with an entity per member of an entity."""
    return EntityTrack(tracks, [(m,) for m in as_entity(members)], lo, hi)


def _run_start(usable: np.ndarray) -> np.ndarray:
    """Start index of the trailing run of usable frames along the last axis.

    Index 0 is never usable, so the run starts after the last unusable
    index; it is ``n`` when the last frame is not usable.
    """
    return usable.shape[-1] - np.argmax(~usable[..., ::-1], axis=-1)


def _motion(track: EntityTrack, i: np.ndarray):
    """Position, size change, speed and motion direction of every entity at indices ``i``."""
    cow, coh = track.size_change(i)
    dx, dy, speed = track.step(i)
    direction = np.where((dx == 0) & (dy == 0), 0.0, np.arctan2(dy, dx))
    return track.x[:, i], track.y[:, i], cow, coh, speed, direction


def _pair_rows(track: EntityTrack, i: np.ndarray) -> np.ndarray:
    """Feature rows of every entity relative to every entity at indices ``i``.

    Shape (E, E, len(i), PAIR_DIM): ``[a, b]`` holds entity ``a`` relative to
    entity ``b``.  Each entity's motion terms are computed once for all of its
    pairs; the midpoint of ``[a, b]`` and ``[b, a]`` is the same float sum.
    """
    motion = _motion(track, i)
    x, y, cow, coh, speed, direction = (v[:, None] for v in motion)
    px, py, _, _, par_speed, par_direction = (v[None, :] for v in motion)
    avg_dist = np.hypot(x - (x + px) / 2.0, y - (y + py) / 2.0)
    angle = wrap_angle(direction - par_direction)
    rows = np.empty(avg_dist.shape + (PAIR_DIM,))
    for k, column in enumerate((cow, coh, speed, avg_dist, (speed - par_speed) / 2.0, angle)):
        rows[..., k] = column  # broadcast over the partner axis
    return rows


class _PairTable:
    """Feature rows of every ordered pair of ``entities`` over the window ending at ``t``.

    ``rows[ia, ib]`` holds frame indices 1..window of entity ``ia`` relative
    to entity ``ib``, read-only; ``first[ia, ib]`` is the start index of their
    trailing usable run.  Cells before that run are never read.
    """

    def __init__(self, tracks: TrackSet, entities: list[tuple[int, ...]], t: int, window: int):
        self.key = (t, window)
        self.index = {e: k for k, e in enumerate(entities)}
        track = EntityTrack(tracks, entities, t - window, t)
        self.first = _run_start(track.usable[:, None] & track.usable[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):  # size changes where samples are missing
            self.rows = _pair_rows(track, np.arange(1, window + 1))
        self.rows.flags.writeable = False

    def windows(self, ea: tuple[int, ...], eb: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | None:
        """The trailing-run streams of ``ea`` and ``eb``, as ``pair_feature_windows`` returns them."""
        ia, ib = self.index.get(ea), self.index.get(eb)
        if ia is None or ib is None:  # no sample in the window
            return None
        first = self.first[ia, ib].item()
        if first > self.key[1] - 1:  # fewer than two usable frames
            return None
        return self.rows[ia, ib, first - 1:], self.rows[ib, ia, first - 1:]


# the person-pair table of each track set for the latest (t, window) asked, which
# all pair_feature_windows calls of a frame share; a TrackSet never changes once
# built, and weak keys keep none alive
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _person_pair_table(tracks: TrackSet, t: int, window: int) -> _PairTable:
    """The table of every person with a sample in [t - window, t]."""
    table = _TABLES.get(tracks)
    if table is None or table.key != (t, window):
        spans = ((p, tracks.person_arrays(p)[0].searchsorted((t - window, t + 1))) for p in tracks.persons)
        persons = [(p,) for p, (a, b) in spans if a < b]
        table = _TABLES[tracks] = _PairTable(tracks, persons, t, window)
    return table


# the table of one batch's entities, kept only while the batch reads it:
# callers keep several track sets alive
_BATCHES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@contextmanager
def pair_window_batch(tracks: TrackSet, keys: list[tuple], t: int, window: int):
    """While the block runs, ``pair_feature_windows`` reads every pair of
    ``keys`` that has a multi-member entity from one table at ``(t, window)``
    over the entities of all such pairs; ``keys`` are (subject, partner)
    pairs of :func:`as_entity` tuples."""
    entities = list(dict.fromkeys(e for key in keys if len(key[0]) > 1 or len(key[1]) > 1 for e in key))
    if entities:
        _BATCHES[tracks] = _PairTable(tracks, entities, t, window)
    try:
        yield
    finally:
        _BATCHES.pop(tracks, None)


def pair_observation(tracks: TrackSet, i, j, t: int) -> np.ndarray:
    """Feature vector of entity ``i`` relative to entity ``j`` at frame ``t``.

    The ``PAIR_DIM`` columns: change of width, change of height, speed,
    average distance, speed difference and motion-direction angle.  Given
    lists of entities of one length for ``i`` and ``j``, it returns one row
    per pair ``(i[k], j[k])``, all from one two-frame track.
    """
    batch = isinstance(i, list)
    keys = [(as_entity(a), as_entity(b)) for a, b in zip(*((i, j) if batch else ([i], [j])), strict=True)]
    index = {e: k for k, e in enumerate(dict.fromkeys(e for key in keys for e in key))}
    a, b = (np.array([index[key[side]] for key in keys], dtype=np.intp) for side in (0, 1))
    track = EntityTrack(tracks, list(index), t - 1, t)
    missing = ~(track.usable[a, 1] & track.usable[b, 1])
    if missing.any():
        ea, eb = keys[missing.argmax()]
        raise ObservationUnavailable(f"missing sample for pair {ea}/{eb} at frames {t - 1}..{t}")
    rows = _pair_rows(track, np.array([1]))[a, b, 0]
    return rows if batch else rows[0]


def body_size_change(tracks: TrackSet, i, t: int):
    """|W(t)H(t) - W(t-1)H(t-1)| / (W(t)H(t)) for person ``i``.

    Given a list of persons, it returns one value per person, all from one
    two-frame track.
    """
    batch = isinstance(i, list)
    persons = i if batch else [i]
    track = EntityTrack(tracks, [(p,) for p in persons], t - 1, t)
    missing = ~track.usable[:, 1]
    if missing.any():
        raise ObservationUnavailable(f"missing sample for person {persons[missing.argmax()]} at frames {t - 1}..{t}")
    area_p, area_t = (track.w * track.h).T
    change = (np.abs(area_t - area_p) / area_t).tolist()
    return change if batch else change[0]


def _group_rows(members: EntityTrack, i: np.ndarray) -> np.ndarray:
    """Group feature rows of a track with one entity per member at usable frame indices ``i``."""
    xs, ys = members.x[:, i], members.y[:, i]
    cow, coh = (c.mean(axis=0) for c in members.size_change(i))
    speeds = members.step(i)[2]
    cx, cy = xs.mean(axis=0), ys.mean(axis=0)
    avg_dist = np.hypot(xs - cx[None, :], ys - cy[None, :]).mean(axis=0)
    avg_speed = speeds.mean(axis=0)
    speed_var = ((speeds - avg_speed[None, :]) ** 2).mean(axis=0)
    return np.stack([cow, coh, avg_speed, avg_dist, speed_var], axis=-1)


def pair_feature_windows(
    tracks: TrackSet, a, b, t: int, window: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Feature streams (fa, fb) of two entities over the window ending at ``t``.

    Uses the longest contiguous run of frames ending at ``t`` where both
    entities are observable, capped at ``window``; returns None when fewer
    than two observation frames exist.  The streams are read-only views:
    two single persons read the table of every person pair at ``t``, kept
    until the track set is asked for another ``(t, window)``; a pair with a
    multi-member entity reads the table of the :func:`pair_window_batch`
    that holds both entities, or else a table of the two alone.
    """
    ea, eb = as_entity(a), as_entity(b)
    if len(ea) == len(eb) == 1:
        return _person_pair_table(tracks, t, window).windows(ea, eb)
    table = _BATCHES.get(tracks)
    if table is None or table.key != (t, window) or not {ea, eb} <= table.index.keys():
        table = _PairTable(tracks, [ea, eb], t, window)
    return table.windows(ea, eb)


def group_feature_window(tracks: TrackSet, members, t: int, window: int) -> np.ndarray | None:
    """Group feature stream over the trailing usable window; None when empty.

    The ``GROUP_DIM`` columns: average change of width, average change of
    height, average speed, average distance to the centroid and speed variance.
    """
    track = member_tracks(tracks, members, t - window, t)
    first = _run_start(track.usable.all(axis=0)).item()
    if first > window:  # no usable frame
        return None
    return _group_rows(track, np.arange(first, window + 1))


def entity_average_speed(tracks: TrackSet, members, t: int, window: int) -> float:
    """Mean member speed over the trailing window; 0.0 when nothing is usable."""
    track = member_tracks(tracks, members, t - window, t)
    # member-major, as the members' usable frames are listed
    speeds = track.step(np.arange(1, window + 1))[2][track.usable[:, 1:]]
    return float(speeds.mean()) if speeds.size else 0.0
