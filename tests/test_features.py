"""Feature extraction tests: hand-evaluated values and structural invariances."""

import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupact.features import (
    GROUP_DIM,
    PAIR_DIM,
    EntityTrack,
    ObservationUnavailable,
    body_size_change,
    entity_average_speed,
    group_feature_window,
    pair_feature_windows,
    pair_observation,
    _pair_rows,
    as_entity,
    pair_window_batch,
    wrap_angle,
)
from groupact.seqmodel import _group_chunks, _stream_chunks
from groupact.trackio import MbbSample, TrackSet

from oracles import group_feature_row, pair_feature_row, sample
from scenarios import bounded_tracks, ragged_tracks


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=8, max_size=8), st.floats(-500, 500), st.floats(-500, 500))
def test_pair_observation_matches_scalar_oracle_and_translates(vals, ox, oy):
    xi, yi, xj, yj, xip, yip, xjp, yjp = vals
    tracks = two_person_tracks([(xip, yip), (xi, yi)], [(xjp, yjp), (xj, yj)])
    obs = pair_observation(tracks, 1, 2, 1)
    ref = pair_feature_row(*(sample(tracks, p, f) for p in (1, 2) for f in (1, 0)))
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
    _, _, avg_speed, avg_dist, speed_var = group_feature_window(tracks, [1, 2], 1, 1)[0]
    assert avg_dist == pytest.approx(5.0)
    assert avg_speed == pytest.approx(2.0)
    assert speed_var == pytest.approx(1.0)


def test_group_observation_singleton():
    tracks = two_person_tracks([(0.0, 0.0), (3.0, 4.0)], [(0.0, 0.0), (0.0, 0.0)])
    _, _, avg_speed, avg_dist, speed_var = group_feature_window(tracks, [1], 1, 1)[0]
    assert avg_speed == pytest.approx(5.0)
    assert avg_dist == 0.0
    assert speed_var == 0.0


def test_group_observation_identical_movers():
    tracks = two_person_tracks([(0.0, 0.0), (2.0, 0.0)], [(5.0, 0.0), (7.0, 0.0)])
    assert group_feature_window(tracks, [1, 2], 1, 1)[0, 4] == 0.0  # speed variance


def test_group_observation_missing_member_gives_none():
    tracks = make_tracks([(0, 1, 0, 0, 5, 5), (1, 1, 1, 0, 5, 5), (1, 2, 9, 9, 5, 5)])
    assert group_feature_window(tracks, [1, 2], 1, 1) is None


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


@settings(max_examples=40, deadline=None)
@given(ragged_tracks())
def test_body_size_change_of_many_persons_equals_one_at_a_time(tracks):
    """A list of persons gives each person's value bitwise; a person without
    a sample at ``t`` or ``t - 1`` is named, the first such one in the list."""
    lo, hi = tracks.frame_range or (0, 0)
    for t in range(lo, hi + 2):
        present = list(tracks.observable_persons(t))
        assert body_size_change(tracks, present, t) == [body_size_change(tracks, p, t) for p in present]
        everyone = [*reversed(tracks.persons), 99]
        first = next(p for p in everyone if p not in present)
        with pytest.raises(ObservationUnavailable, match=f"^missing sample for person {first} at frames {t - 1}..{t}$"):
            body_size_change(tracks, everyone, t)


_IDS = st.sets(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=6)
_ID_TYPES = st.sampled_from([int, np.int32, np.int64, np.intp])


@settings(max_examples=200, deadline=None)
@given(_IDS, st.data())
def test_as_entity_sorts_integer_ids_in_any_form_and_order(ids, data):
    want = tuple(sorted(ids))
    members = [data.draw(_ID_TYPES)(m) for m in data.draw(st.permutations(sorted(ids)))]
    forms = [list, tuple, set] + ([lambda m: m[0]] if len(members) == 1 else [])
    got = as_entity(data.draw(st.sampled_from(forms))(members))
    assert got == want and all(type(m) is int for m in got)
    assert as_entity(want) is want


@pytest.mark.parametrize("who", [
    (1.9,), [np.float64(3.0)], "12", b"12", True, np.bool_(True), [True], (2, 2), [np.int64(4), 4],
    1.5, None, (), [None], ((1,),),
], ids=repr)
def test_as_entity_rejects_what_is_not_a_set_of_integer_ids(who):
    with pytest.raises(ValueError, match=re.escape(repr(who))):
        as_entity(who)


def test_entity_track_is_member_average():
    rows = [(t, p, 2.0 * t, 4.0 * (p - 1), 10.0, 24.0) for t in range(10) for p in (1, 2)]
    track = EntityTrack(make_tracks(rows), [(1, 2)], 3, 8)
    # a group entity's track is the per-frame mean of its members
    assert np.allclose(track.x[0, -1], 16.0)
    assert np.allclose(track.y[0, -1], 2.0)
    # identical members: the average equals either one
    rows = [(t, p, float(t), 1.0, 10.0, 24.0) for t in range(10) for p in (1, 2)]
    assert np.allclose(EntityTrack(make_tracks(rows), [(1, 2)], 3, 8).y, 1.0)


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


def _assert_row(got, ref):
    """Row equality up to rounding; a sixth column is an angle, compared on the circle."""
    assert got[:5] == pytest.approx(ref[:5], rel=1e-12, abs=1e-12)
    if len(ref) == PAIR_DIM:
        d = abs(got[5] - ref[5]) % (2 * math.pi)
        assert min(d, 2 * math.pi - d) <= 1e-12


def _oracle_chunks(tracks, members, start, end, chunk):
    """Frames of each training chunk: runs of observable frames, split, short pieces dropped."""
    out, run = [], []
    for f in range(max(start, 1), end + 2):
        if f <= end and all(tracks.observable(m, f) for m in members):
            run.append(f)
            continue
        out += [run[k : k + chunk] for k in range(0, len(run), chunk) if len(run[k : k + chunk]) >= 4]
        run = []
    return out


@settings(max_examples=40, deadline=None)
@given(ragged_tracks(), st.integers(2, 8), st.integers(4, 7))
def test_feature_paths_match_scalar_oracle_on_ragged_tracks(tracks, window, chunk):
    """Every windowed and chunked row equals the scalar oracle at its frame."""
    persons = tracks.persons
    lo, hi = tracks.frame_range

    def trailing(members, t):
        n = 0
        while n < window and all(tracks.observable(m, t - n) for m in members):
            n += 1
        return n

    def pair_ref(a, b, f):
        return pair_feature_row(*(sample(tracks, p, g) for p in (a, b) for g in (f, f - 1)))

    def group_ref(members, f):
        return group_feature_row([sample(tracks, m, f) for m in members],
                                 [sample(tracks, m, f - 1) for m in members])

    subsets = [tuple(p for k, p in enumerate(persons) if mask >> k & 1)
               for mask in range(1, 2 ** len(persons))]
    for t in range(lo, hi + 2):
        for a in persons:
            for b in persons:
                if a == b:
                    continue
                win = pair_feature_windows(tracks, a, b, t, window)
                n = trailing((a, b), t)
                if n < 2:
                    assert win is None
                    continue
                assert win[0].shape == win[1].shape == (n, PAIR_DIM)
                for k, f in enumerate(range(t - n + 1, t + 1)):
                    _assert_row(win[0][k], pair_ref(a, b, f))
                    _assert_row(win[1][k], pair_ref(b, a, f))
        for members in subsets:
            rows = group_feature_window(tracks, members, t, window)
            n = trailing(members, t)
            if n < 1:
                assert rows is None
            else:
                assert rows.shape == (n, GROUP_DIM)
                for k, f in enumerate(range(t - n + 1, t + 1)):
                    _assert_row(rows[k], group_ref(members, f))
            steps = [pair_ref(m, m, f)[2] for m in members
                     for f in range(t - window + 1, t + 1) if tracks.observable(m, f)]
            want = sum(steps) / len(steps) if steps else 0.0
            assert entity_average_speed(tracks, members, t, window) == pytest.approx(want, rel=1e-12)
    for a in persons:
        for b in persons:
            if a != b:
                frames = _oracle_chunks(tracks, (a, b), lo, hi, chunk)
                got = _stream_chunks(tracks, a, b, lo, hi, chunk)
                assert [len(fa) for fa, _ in got] == [len(fs) for fs in frames]
                for (fa, fb), fs in zip(got, frames):
                    for k, f in enumerate(fs):
                        _assert_row(fa[k], pair_ref(a, b, f))
                        _assert_row(fb[k], pair_ref(b, a, f))
    for members in subsets:
        frames = _oracle_chunks(tracks, members, lo, hi, chunk)
        got = _group_chunks(tracks, members, lo, hi, chunk)
        assert [len(g) for g in got] == [len(fs) for fs in frames]
        for g, fs in zip(got, frames):
            for k, f in enumerate(fs):
                _assert_row(g[k], group_ref(members, f))


def _fresh_windows(tracks, a, b, t, window):
    """The windows of entities ``a`` and ``b`` from a two-entity track of their own."""
    track = EntityTrack(tracks, [as_entity(a), as_entity(b)], t - window, t)
    usable = track.usable.all(axis=0)
    n = 0
    while n < window and usable[window - n]:
        n += 1
    if n < 2:
        return None
    rows = _pair_rows(track, np.arange(window - n + 1, window + 1))
    return rows[0, 1], rows[1, 0]


@settings(max_examples=30, deadline=None)
@given(st.one_of(ragged_tracks(), bounded_tracks()), st.integers(2, 8))
def test_person_pair_windows_equal_fresh_pair_rows(tracks, window):
    """Every single-person window is a read-only view, bitwise equal to a fresh track's rows.

    Frames and windows are asked ascending, then descending, so each table
    is rebuilt after others; person 99 has no sample anywhere.
    """
    lo, hi = tracks.frame_range or (0, 0)  # bounded tracks may hold no sample
    persons = tracks.persons + (99,)
    keys = [(t, w) for t in range(lo, hi + 2) for w in (window, window + 3)]
    for t, w in keys + keys[::-1]:
        for a in persons:
            for b in persons:
                got = pair_feature_windows(tracks, a, b, t, w)
                want = _fresh_windows(tracks, a, b, t, w)
                if not all(any(tracks.has(p, f) for f in range(t - w, t + 1)) for p in (a, b)):
                    assert want is None  # a person without a sample in the window
                if want is None:
                    assert got is None
                    continue
                for g, r in zip(got, want):
                    assert g.shape == r.shape and np.array_equal(g, r)
                    assert not g.flags.writeable


def _assert_fresh(tracks, a, b, t, window, got):
    """``got`` is None exactly when a fresh two-entity track has no window, else equal read-only views."""
    want = _fresh_windows(tracks, a, b, t, window)
    if want is None:
        assert got is None
        return
    for g, r in zip(got, want):
        assert g.shape == r.shape and np.array_equal(g, r)
        assert not g.flags.writeable


@settings(max_examples=30, deadline=None)
@given(st.one_of(ragged_tracks(), bounded_tracks()), st.integers(2, 8))
def test_entity_pair_windows_equal_fresh_pair_rows(tracks, window):
    """Windows of (person, entity), (entity, person) and (entity, entity) pairs equal a fresh track's rows.

    The entities are like seeds (disjoint member pairs) and like group
    representatives (member subsets); one holds person 99, who has no
    sample.  Each (frame, window) asks all pairs in one batch, ascending
    and then descending, and asks them again one at a time.
    """
    lo, hi = tracks.frame_range or (0, 0)
    persons = tracks.persons + (99,)
    seeds = [persons[k:k + 2] for k in range(0, len(persons) - 1, 2)]
    reps = [persons[:-1], persons[1:3], (persons[0], 99)]
    entities = list(dict.fromkeys(as_entity(e) for e in seeds + reps if len(set(e)) > 1))
    pairs = [(p, e) for p in persons for e in entities] + [(e, p) for p in persons for e in entities]
    pairs += [(e, f) for e in entities for f in entities if e != f]
    keys = [(as_entity(a), as_entity(b)) for a, b in pairs]
    frames = [(t, w) for t in range(lo, hi + 2) for w in (window, window + 3)]
    for t, w in frames + frames[::-1]:
        with pair_window_batch(tracks, keys, t, w):
            got = [pair_feature_windows(tracks, a, b, t, w) for a, b in pairs]
        for (a, b), g in zip(pairs, got):
            _assert_fresh(tracks, a, b, t, w, g)
    for a, b in pairs:
        _assert_fresh(tracks, a, b, hi, window, pair_feature_windows(tracks, a, b, hi, window))


def test_person_pair_table_keeps_no_track_set_alive():
    tracks = make_tracks([(t, p, float(t), float(p), 5.0, 5.0) for t in range(6) for p in (1, 2)])
    assert pair_feature_windows(tracks, 1, 2, 5, window=4) is not None
    ref = weakref.ref(tracks)
    del tracks
    gc.collect()
    assert ref() is None
