"""Feature extraction tests: hand-evaluated values and structural invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupact.features import (
    EntityTrack,
    ObservationUnavailable,
    body_size_change,
    group_observation,
    pair_feature_windows,
    pair_observation,
    wrap_angle,
)
from groupact.trackio import MbbSample, TrackSet


def make_tracks(rows):
    return TrackSet([MbbSample(*r) for r in rows])


def two_person_tracks(i_pos, j_pos, i_box=None, j_box=None):
    """Positions as [(x, y), ...] per frame; boxes default to 10x20."""
    i_box = i_box or [(10.0, 20.0)] * len(i_pos)
    j_box = j_box or [(10.0, 20.0)] * len(j_pos)
    rows = []
    for t, ((xi, yi), (wi, hi)) in enumerate(zip(i_pos, i_box)):
        rows.append((t, 1, xi, yi, wi, hi))
    for t, ((xj, yj), (wj, hj)) in enumerate(zip(j_pos, j_box)):
        rows.append((t, 2, xj, yj, wj, hj))
    return make_tracks(rows)


def test_pair_observation_hand_values():
    # i moves (0,0)->(3,4) with width 40->44; j stays at (0,10)
    tracks = two_person_tracks(
        [(0.0, 0.0), (3.0, 4.0)],
        [(0.0, 10.0), (0.0, 10.0)],
        i_box=[(40.0, 90.0), (44.0, 90.0)],
        j_box=[(40.0, 90.0), (40.0, 90.0)],
    )
    cow, coh, speed, dist, speed_diff, angle = pair_observation(tracks, 1, 2, 1)
    assert speed == pytest.approx(5.0)
    assert cow == pytest.approx(4.0 / 44.0)
    assert coh == pytest.approx(0.0)
    assert dist == pytest.approx(0.5 * math.sqrt(3**2 + 6**2))
    assert dist == pytest.approx(math.sqrt(11.25))
    assert speed_diff == pytest.approx(2.5)
    assert angle == pytest.approx(math.atan2(4.0, 3.0))


def test_pair_observation_both_stationary():
    tracks = two_person_tracks([(1.0, 1.0)] * 2, [(4.0, 5.0)] * 2)
    _, _, speed, _, speed_diff, angle = pair_observation(tracks, 1, 2, 1)
    assert speed == 0.0
    assert speed_diff == 0.0
    assert angle == 0.0


def test_pair_observation_identical_tracks():
    tracks = two_person_tracks([(0.0, 0.0), (1.0, 1.0)], [(0.0, 0.0), (1.0, 1.0)])
    _, _, _, dist, speed_diff, angle = pair_observation(tracks, 1, 2, 1)
    assert dist == 0.0
    assert angle == 0.0
    assert speed_diff == 0.0


def test_pair_observation_missing_sample_raises():
    tracks = make_tracks([(0, 1, 0, 0, 5, 5), (1, 1, 1, 0, 5, 5), (1, 2, 9, 9, 5, 5)])
    with pytest.raises(ObservationUnavailable):
        pair_observation(tracks, 1, 2, 1)


def _oracle_pair(xi, yi, wi, hi, xip, yip, wip, hip, xj, yj, xjp, yjp):
    """Scalar re-derivation of the six features, independent of the library path."""
    cow = abs(wi - wip) / wi
    coh = abs(hi - hip) / hi
    speed_i = math.hypot(xi - xip, yi - yip)
    speed_j = math.hypot(xj - xjp, yj - yjp)
    avg_dist = math.hypot(xi - (xi + xj) / 2, yi - (yi + yj) / 2)
    sd = (speed_i - speed_j) / 2
    di = 0.0 if (xi == xip and yi == yip) else math.atan2(yi - yip, xi - xip)
    dj = 0.0 if (xj == xjp and yj == yjp) else math.atan2(yj - yjp, xj - xjp)
    ang = di - dj
    while ang <= -math.pi:
        ang += 2 * math.pi
    while ang > math.pi:
        ang -= 2 * math.pi
    return cow, coh, speed_i, avg_dist, sd, ang


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=8, max_size=8), st.floats(-500, 500), st.floats(-500, 500))
def test_pair_observation_matches_scalar_oracle_and_translates(vals, ox, oy):
    xi, yi, xj, yj, xip, yip, xjp, yjp = vals
    tracks = two_person_tracks([(xip, yip), (xi, yi)], [(xjp, yjp), (xj, yj)])
    obs = pair_observation(tracks, 1, 2, 1)
    ref = _oracle_pair(xi, yi, 10.0, 20.0, xip, yip, 10.0, 20.0, xj, yj, xjp, yjp)
    for g, r in zip(obs, ref):
        assert g == pytest.approx(r, abs=1e-9)
    # translation invariance
    shifted = two_person_tracks(
        [(xip + ox, yip + oy), (xi + ox, yi + oy)],
        [(xjp + ox, yjp + oy), (xj + ox, yj + oy)],
    )
    obs2 = pair_observation(shifted, 1, 2, 1)
    # speed, average distance and speed difference
    assert obs2[2:5] == pytest.approx(obs[2:5], abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=8, max_size=8))
def test_pair_observation_swap_asymmetry(vals):
    xi, yi, xj, yj, xip, yip, xjp, yjp = vals
    tracks = two_person_tracks([(xip, yip), (xi, yi)], [(xjp, yjp), (xj, yj)])
    ij = pair_observation(tracks, 1, 2, 1)
    ji = pair_observation(tracks, 2, 1, 1)
    _, _, speed_ij, dist_ij, diff_ij, angle_ij = ij
    _, _, speed_ji, dist_ji, diff_ji, angle_ji = ji
    assert dist_ji == pytest.approx(dist_ij, abs=1e-9)
    assert diff_ji == pytest.approx(-diff_ij, abs=1e-9)
    # negation modulo 2*pi: both wrapped angles map to the same residue class
    diff = (angle_ji + angle_ij) % (2 * math.pi)
    assert min(diff, 2 * math.pi - diff) == pytest.approx(0.0, abs=1e-9)
    assert speed_ji == pytest.approx(math.hypot(xj - xjp, yj - yjp), abs=1e-9)


def test_wrap_angle_range():
    for a in np.linspace(-7, 7, 200):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)


def test_group_observation_hand_values():
    # members at (0,0) and (6,8) with speeds 1 and 3
    tracks = two_person_tracks(
        [(1.0, 0.0), (0.0, 0.0)],
        [(3.0, 8.0), (6.0, 8.0)],
    )
    _, _, avg_speed, avg_dist, speed_var = group_observation(tracks, [1, 2], 1)
    assert avg_dist == pytest.approx(5.0)
    assert avg_speed == pytest.approx(2.0)
    assert speed_var == pytest.approx(1.0)


def test_group_observation_singleton():
    tracks = two_person_tracks([(0.0, 0.0), (3.0, 4.0)], [(0.0, 0.0), (0.0, 0.0)])
    _, _, avg_speed, avg_dist, speed_var = group_observation(tracks, [1], 1)
    assert avg_speed == pytest.approx(5.0)
    assert avg_dist == 0.0
    assert speed_var == 0.0


def test_group_observation_identical_movers():
    tracks = two_person_tracks([(0.0, 0.0), (2.0, 0.0)], [(5.0, 0.0), (7.0, 0.0)])
    assert group_observation(tracks, [1, 2], 1)[4] == 0.0  # speed variance


def test_group_observation_missing_member_raises():
    tracks = make_tracks([(0, 1, 0, 0, 5, 5), (1, 1, 1, 0, 5, 5), (1, 2, 9, 9, 5, 5)])
    with pytest.raises(ObservationUnavailable):
        group_observation(tracks, [1, 2], 1)


def test_body_size_change_values():
    tracks = make_tracks(
        [
            (0, 1, 0, 0, 40.0, 90.0),
            (1, 1, 0, 0, 44.0, 90.0),
            (2, 1, 0, 0, 44.0, 90.0),
            (0, 2, 5, 5, 40.0, 90.0),
            (1, 2, 5, 5, 80.0, 90.0),
        ]
    )
    assert body_size_change(tracks, 1, 1) == pytest.approx(360.0 / 3960.0)
    assert body_size_change(tracks, 1, 1) < 0.1  # below the active threshold
    assert body_size_change(tracks, 1, 2) == 0.0
    assert body_size_change(tracks, 2, 1) == pytest.approx(0.5)
    assert body_size_change(tracks, 2, 1) > 0.1


def test_entity_track_is_member_average():
    rows = [(t, p, 2.0 * t, 4.0 * (p - 1), 10.0, 24.0) for t in range(10) for p in (1, 2)]
    track = EntityTrack(make_tracks(rows), (1, 2), 3, 8)
    # a group entity's track is the per-frame mean of its members
    assert np.allclose(track.x[-1], 16.0)
    assert np.allclose(track.y[-1], 2.0)
    # identical members: the average equals either one
    rows = [(t, p, float(t), 1.0, 10.0, 24.0) for t in range(10) for p in (1, 2)]
    assert np.allclose(EntityTrack(make_tracks(rows), (1, 2), 3, 8).y, 1.0)


def test_pair_feature_windows_suffix_and_minimum():
    rows = []
    for t in range(10):
        if t == 4:
            continue  # gap for person 1
        rows.append((t, 1, float(t), 0.0, 5.0, 5.0))
    for t in range(10):
        rows.append((t, 2, 0.0, float(t), 5.0, 5.0))
    tracks = make_tracks(rows)
    win = pair_feature_windows(tracks, 1, 2, 9, window=8)
    assert win is not None
    fa, fb = win
    # frames 6..9 usable (5 needs frame 4)
    assert fa.shape == (4, 6)
    assert fb.shape == (4, 6)
    assert pair_feature_windows(tracks, 1, 2, 5, window=8) is None  # only frame 5... too short
    assert pair_feature_windows(tracks, 1, 2, 6, window=8) is None  # single usable frame
