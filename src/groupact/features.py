"""Box-track features: pairwise observation vectors, group features, body-size change.

All features derive from minimum-bounding-box samples (center x, y and box
w, h in pixels).  An "entity" here is one person or a set of people averaged
per frame into a virtual track, so seeds and group representatives plug into
the same pairwise machinery as real people.
"""

from __future__ import annotations

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
    """Normalise a person id or iterable of ids to a sorted member tuple."""
    if isinstance(who, (int, np.integer)):
        return (int(who),)
    members = tuple(sorted(int(m) for m in who))
    if not members:
        raise ValueError("entity needs at least one member")
    return members


class EntityTrack:
    """Per-frame kinematics of an entity over [lo, hi].

    For multi-member entities each frame holds the arithmetic mean over the
    members present at that frame; a frame is valid when at least one member
    has a sample, and usable when it and the frame before are valid (index 0
    never is).  ``step`` and ``size_change`` give the motion from index
    ``i - 1`` to ``i``, computed only at the indices asked for.
    """

    def __init__(self, tracks: TrackSet, members: tuple[int, ...], lo: int, hi: int):
        n = hi - lo + 1
        acc = np.zeros((4, n))
        count = np.zeros(n)
        for m in members:
            frames, xywh = tracks.person_arrays(m)
            a, b = frames.searchsorted((lo, hi + 1)).tolist()
            at = frames[a:b] - lo
            acc[:, at] += xywh[:, a:b]
            count[at] += 1
        valid = count > 0
        self.usable = np.zeros(n, dtype=bool)
        self.usable[1:] = valid[1:] & valid[:-1]
        self.x, self.y, self.w, self.h = acc / np.maximum(count, 1.0)

    def step(self, i: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Displacement (dx, dy) and speed into frame indices ``i``."""
        dx = self.x[i] - self.x[i - 1]
        dy = self.y[i] - self.y[i - 1]
        return dx, dy, np.hypot(dx, dy)

    def size_change(self, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Relative change of box width and height into frame indices ``i``."""
        j = i - 1
        return np.abs(self.w[i] - self.w[j]) / self.w[i], np.abs(self.h[i] - self.h[j]) / self.h[i]


def member_tracks(tracks: TrackSet, members, lo: int, hi: int) -> list[EntityTrack]:
    """One single-person track over [lo, hi] per member of an entity."""
    return [EntityTrack(tracks, (m,), lo, hi) for m in as_entity(members)]


def _motion(track: EntityTrack, i: np.ndarray):
    """Position, size change, speed and motion direction of one entity at indices ``i``."""
    cow, coh = track.size_change(i)
    dx, dy, speed = track.step(i)
    direction = np.where((dx == 0) & (dy == 0), 0.0, np.arctan2(dy, dx))
    return track.x[i], track.y[i], cow, coh, speed, direction


def _pair_rows(ta: EntityTrack, tb: EntityTrack, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of ``ta`` relative to ``tb`` and of ``tb`` relative to ``ta`` at usable indices ``i``.

    Each entity's terms, and the shared midpoint, are computed once for both directions.
    """
    a, b = _motion(ta, i), _motion(tb, i)
    mid_x = (a[0] + b[0]) / 2.0
    mid_y = (a[1] + b[1]) / 2.0

    def rows(sub, par):
        x, y, cow, coh, speed, direction = sub
        *_, par_speed, par_direction = par
        avg_dist = np.hypot(x - mid_x, y - mid_y)
        angle = wrap_angle(direction - par_direction)
        return np.stack([cow, coh, speed, avg_dist, (speed - par_speed) / 2.0, angle], axis=-1)

    return rows(a, b), rows(b, a)


def pair_observation(tracks: TrackSet, i, j, t: int) -> np.ndarray:
    """Feature vector of entity ``i`` relative to entity ``j`` at frame ``t``.

    The ``PAIR_DIM`` columns: change of width, change of height, speed,
    average distance, speed difference and motion-direction angle.
    """
    ea, eb = as_entity(i), as_entity(j)
    ta = EntityTrack(tracks, ea, t - 1, t)
    tb = EntityTrack(tracks, eb, t - 1, t)
    if not (ta.usable[1] and tb.usable[1]):
        raise ObservationUnavailable(f"missing sample for pair {ea}/{eb} at frames {t - 1}..{t}")
    return _pair_rows(ta, tb, np.array([1]))[0][0]


def body_size_change(tracks: TrackSet, i: int, t: int) -> float:
    """|W(t)H(t) - W(t-1)H(t-1)| / (W(t)H(t)) for person ``i``."""
    track = EntityTrack(tracks, (i,), t - 1, t)
    if not track.usable[1]:
        raise ObservationUnavailable(f"missing sample for person {i} at frames {t - 1}..{t}")
    area_p, area_t = track.w * track.h
    return float(abs(area_t - area_p) / area_t)


def _group_rows(members: list[EntityTrack], i: np.ndarray) -> np.ndarray:
    """Group feature rows of the member tracks at usable frame indices ``i``."""
    xs = np.stack([m.x[i] for m in members])
    ys = np.stack([m.y[i] for m in members])
    cow, coh = np.stack([m.size_change(i) for m in members]).mean(axis=0)
    speeds = np.stack([m.step(i)[2] for m in members])
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
    than two observation frames exist.
    """
    ta = EntityTrack(tracks, as_entity(a), t - window, t)
    tb = EntityTrack(tracks, as_entity(b), t - window, t)
    # index 0 is never usable, so the trailing usable run starts after the last unusable index
    first = np.flatnonzero(~(ta.usable & tb.usable))[-1] + 1
    if first > window - 1:  # fewer than two usable frames
        return None
    idx = np.arange(first, window + 1)
    return _pair_rows(ta, tb, idx)


def group_feature_window(tracks: TrackSet, members, t: int, window: int) -> np.ndarray | None:
    """Group feature stream over the trailing usable window; None when empty.

    The ``GROUP_DIM`` columns: average change of width, average change of
    height, average speed, average distance to the centroid and speed variance.
    """
    tms = member_tracks(tracks, members, t - window, t)
    first = np.flatnonzero(~np.logical_and.reduce([tm.usable for tm in tms]))[-1] + 1
    if first > window:  # no usable frame
        return None
    return _group_rows(tms, np.arange(first, window + 1))


def entity_average_speed(tracks: TrackSet, members, t: int, window: int) -> float:
    """Mean member speed over the trailing window; 0.0 when nothing is usable."""
    speeds = np.concatenate(
        [tm.step(np.flatnonzero(tm.usable))[2] for tm in member_tracks(tracks, members, t - window, t)]
    )
    return float(speeds.mean()) if speeds.size else 0.0
