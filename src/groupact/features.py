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
    has a sample.
    """

    def __init__(self, tracks: TrackSet, members: tuple[int, ...], lo: int, hi: int):
        self.members = members
        self.lo = lo
        n = hi - lo + 1
        acc = {k: np.zeros(n) for k in ("x", "y", "w", "h")}
        count = np.zeros(n)
        rng = tracks.frame_range
        for m in members:
            if rng is None or m not in tracks.persons:
                continue
            arr = tracks.person_arrays(m)
            t0 = arr["t0"]
            src_lo = max(lo, rng[0])
            src_hi = min(hi, rng[1])
            if src_lo > src_hi:
                continue
            sl = slice(src_lo - t0, src_hi - t0 + 1)
            dst = slice(src_lo - lo, src_hi - lo + 1)
            v = arr["valid"][sl]
            for k in ("x", "y", "w", "h"):
                acc[k][dst] += np.where(v, arr[k][sl], 0.0)
            count[dst] += v
        self.valid = count > 0
        safe = np.maximum(count, 1.0)
        self.x = acc["x"] / safe
        self.y = acc["y"] / safe
        self.w = acc["w"] / safe
        self.h = acc["h"] / safe

    def idx(self, frame: int) -> int:
        return frame - self.lo


def _subject_features(sub: EntityTrack, par: EntityTrack, i: np.ndarray) -> np.ndarray:
    """Feature rows of ``sub`` relative to ``par`` at frame indices ``i`` (i-1 valid)."""
    j = i - 1
    cow = np.abs(sub.w[i] - sub.w[j]) / sub.w[i]
    coh = np.abs(sub.h[i] - sub.h[j]) / sub.h[i]
    dxs, dys = sub.x[i] - sub.x[j], sub.y[i] - sub.y[j]
    dxp, dyp = par.x[i] - par.x[j], par.y[i] - par.y[j]
    speed_s = np.hypot(dxs, dys)
    speed_p = np.hypot(dxp, dyp)
    mid_x = (sub.x[i] + par.x[i]) / 2.0
    mid_y = (sub.y[i] + par.y[i]) / 2.0
    avg_dist = np.hypot(sub.x[i] - mid_x, sub.y[i] - mid_y)
    speed_diff = (speed_s - speed_p) / 2.0
    dir_s = np.where((dxs == 0) & (dys == 0), 0.0, np.arctan2(dys, dxs))
    dir_p = np.where((dxp == 0) & (dyp == 0), 0.0, np.arctan2(dyp, dxp))
    angle = wrap_angle(dir_s - dir_p)
    return np.stack([cow, coh, speed_s, avg_dist, speed_diff, angle], axis=-1)


def pair_observation(tracks: TrackSet, i, j, t: int) -> np.ndarray:
    """Feature vector of entity ``i`` relative to entity ``j`` at frame ``t``.

    The ``PAIR_DIM`` columns: change of width, change of height, speed,
    average distance, speed difference and motion-direction angle.
    """
    ea, eb = as_entity(i), as_entity(j)
    ta = EntityTrack(tracks, ea, t - 1, t)
    tb = EntityTrack(tracks, eb, t - 1, t)
    if not (ta.valid.all() and tb.valid.all()):
        raise ObservationUnavailable(f"missing sample for pair {ea}/{eb} at frames {t - 1}..{t}")
    return _subject_features(ta, tb, np.array([1]))[0]


def body_size_change(tracks: TrackSet, i: int, t: int) -> float:
    """|W(t)H(t) - W(t-1)H(t-1)| / (W(t)H(t)) for person ``i``."""
    cur = tracks.sample(i, t)
    prev = tracks.sample(i, t - 1)
    if cur is None or prev is None:
        raise ObservationUnavailable(f"missing sample for person {i} at frames {t - 1}..{t}")
    area_t = cur.w * cur.h
    area_p = prev.w * prev.h
    return abs(area_t - area_p) / area_t


def _group_rows(tracks: TrackSet, members: tuple[int, ...], frames: np.ndarray) -> np.ndarray:
    per = []
    for m in members:
        tm = EntityTrack(tracks, (m,), int(frames.min()) - 1, int(frames.max()))
        idx = frames - tm.lo
        if not (tm.valid[idx].all() and tm.valid[idx - 1].all()):
            raise ObservationUnavailable(f"missing sample for member {m}")
        j = idx - 1
        cow = np.abs(tm.w[idx] - tm.w[j]) / tm.w[idx]
        coh = np.abs(tm.h[idx] - tm.h[j]) / tm.h[idx]
        speed = np.hypot(tm.x[idx] - tm.x[j], tm.y[idx] - tm.y[j])
        per.append((tm.x[idx], tm.y[idx], cow, coh, speed))
    xs = np.stack([p[0] for p in per])
    ys = np.stack([p[1] for p in per])
    cows = np.stack([p[2] for p in per])
    cohs = np.stack([p[3] for p in per])
    speeds = np.stack([p[4] for p in per])
    cx, cy = xs.mean(axis=0), ys.mean(axis=0)
    avg_dist = np.hypot(xs - cx[None, :], ys - cy[None, :]).mean(axis=0)
    avg_speed = speeds.mean(axis=0)
    speed_var = ((speeds - avg_speed[None, :]) ** 2).mean(axis=0)
    return np.stack([cows.mean(axis=0), cohs.mean(axis=0), avg_speed, avg_dist, speed_var], axis=-1)


def group_observation(tracks: TrackSet, members, t: int) -> np.ndarray:
    """Aggregate features of a member set at frame ``t`` (all members required).

    The ``GROUP_DIM`` columns: average change of width, average change of
    height, average speed, average distance to the centroid and speed variance.
    """
    return _group_rows(tracks, as_entity(members), np.array([t]))[0]


def _usable_suffix(ok: np.ndarray) -> int:
    """Length of the trailing run of True values."""
    n = 0
    for v in ok[::-1]:
        if not v:
            break
        n += 1
    return n


def pair_feature_windows(
    tracks: TrackSet, a, b, t: int, window: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Feature streams (fa, fb) of two entities over the window ending at ``t``.

    Uses the longest contiguous run of frames ending at ``t`` where both
    entities are observable, capped at ``window``; returns None when fewer
    than two observation frames exist.
    """
    ea, eb = as_entity(a), as_entity(b)
    lo = t - window
    ta = EntityTrack(tracks, ea, lo, t)
    tb = EntityTrack(tracks, eb, lo, t)
    both = ta.valid & tb.valid
    ok = both[1:] & both[:-1]  # frame usable when valid at f and f-1
    n = _usable_suffix(ok)
    if n < 2:
        return None
    idx = np.arange(window - n + 1, window + 1)
    fa = _subject_features(ta, tb, idx)
    fb = _subject_features(tb, ta, idx)
    return fa, fb


def group_feature_window(tracks: TrackSet, members, t: int, window: int) -> np.ndarray | None:
    """Group feature stream over the trailing usable window; None when empty."""
    ms = as_entity(members)
    lo = t - window
    valids = []
    for m in ms:
        tm = EntityTrack(tracks, (m,), lo, t)
        valids.append(tm.valid)
    allv = np.logical_and.reduce(valids)
    ok = allv[1:] & allv[:-1]
    n = _usable_suffix(ok)
    if n < 1:
        return None
    frames = np.arange(t - n + 1, t + 1)
    return _group_rows(tracks, ms, frames)


def entity_average_speed(tracks: TrackSet, members, t: int, window: int) -> float:
    """Mean member speed over the trailing window; 0.0 when nothing is usable."""
    ms = as_entity(members)
    lo = t - window
    speeds = []
    for m in ms:
        tm = EntityTrack(tracks, (m,), lo, t)
        ok = tm.valid[1:] & tm.valid[:-1]
        idx = np.nonzero(ok)[0] + 1
        if idx.size:
            speeds.append(np.hypot(tm.x[idx] - tm.x[idx - 1], tm.y[idx] - tm.y[idx - 1]))
    if not speeds:
        return 0.0
    return float(np.concatenate(speeds).mean())
