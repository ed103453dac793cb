"""Sequence-model tests: exhaustive-enumeration oracles, degeneracies, training."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupact.features import pair_feature_windows
from groupact.gmm import GaussianMixture
from groupact import gmm, seqmodel
from groupact.simgen import generate
from groupact.seqmodel import (
    ActivityModel,
    ActivityModelBank,
    CorrelationEngine,
    DataError,
    TrainConfig,
    hmm_group_likelihood,
    train_activity_model,
    train_bank,
    train_hmm_model,
)
from groupact.taxonomy import MODELABLE_LABELS
from groupact.trackio import AnnotationSet, MbbSample, TrackSet

from oracles import (
    ahmm_forward,
    correlation,
    enumerate_ahmm,
    enumerate_ahmm_counts,
    enumerate_ahmm_lattice_best,
    enumerate_ahmm_lattice_masses,
    enumerate_hmm,
    enumerate_hmm_counts,
    pair_hmm_loglik,
    window_log_mass,
)
from scenarios import bounded_tracks, ragged_tracks, walk_together


def random_gmm(rng, d, k=None):
    k = k or int(rng.integers(1, 3))
    w = rng.random(k) + 0.2
    w /= w.sum()
    return GaussianMixture(w, rng.normal(scale=2.0, size=(k, d)), rng.random((k, d)) + 0.2)


def random_model(rng, n=None, d=1, eps=None):
    n = n or int(rng.integers(1, 4))
    entry = rng.random(n) + 0.1
    entry /= entry.sum()
    raw = rng.random((n, n + 1)) + 0.05
    raw /= raw.sum(axis=1, keepdims=True)
    trans, exit_ = raw[:, :n], raw[:, n]
    advance = np.full(n, eps) if eps is not None else rng.uniform(0.2, 0.9, size=n)
    marginal = tuple(random_gmm(rng, d) for _ in range(n))
    joint = tuple(random_gmm(rng, 2 * d) for _ in range(n))
    return ActivityModel(entry, trans, exit_, advance, marginal, joint)


def oracle_fns(model, fi, fj):
    """Table-backed emission lookups so path enumeration stays cheap."""
    S, T, n = fi.shape[0], fj.shape[0], model.n_states
    jtab = [
        [
            [float(model.joint[k].log_density(np.concatenate([fi[s], fj[t]]))) for t in range(T)]
            for s in range(S)
        ]
        for k in range(n)
    ]
    mtab = [[float(model.marginal[k].log_density(fj[t])) for t in range(T)] for k in range(n)]
    return (lambda k, s, t: jtab[k][s][t]), (lambda k, t: mtab[k][t])


def test_forward_matches_enumeration_randomized():
    rng = np.random.default_rng(2024)
    for case in range(60):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        model = random_model(rng, n=n, d=d)
        T = int(rng.integers(1, 6))
        S = int(rng.integers(1, T + 1))
        slack = int(rng.integers(0, 3))
        fi = rng.normal(size=(S, d))
        fj = rng.normal(size=(T, d))
        jfn, mfn = oracle_fns(model, fi, fj)
        want = enumerate_ahmm(
            model.entry, model.trans, model.exit, model.advance, jfn, mfn, S, T,
            terminal_slack=slack,
        )
        _, got = ahmm_forward(model, fi, fj, terminal_slack=slack)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), f"case {case}"


def test_lattice_masses_match_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        model = random_model(rng, n=n, d=1)
        T = int(rng.integers(2, 5))
        S = T
        fi = rng.normal(size=(S, 1))
        fj = rng.normal(size=(T, 1))
        jfn, mfn = oracle_fns(model, fi, fj)
        masses = enumerate_ahmm_lattice_masses(
            model.entry, model.trans, model.advance, jfn, mfn, S, T
        )
        lat, _ = ahmm_forward(model, fi, fj)
        got = np.exp(lat[-1])
        assert np.allclose(got, masses, rtol=1e-9, atol=1e-15)
        for dt in range(0, T):
            lo = max(1, T - dt)
            want = math.log(masses[lo:, :].sum())
            assert window_log_mass(model, fi, fj, dt) == pytest.approx(want, rel=1e-9)


def test_eps_one_forces_diagonal_and_matches_pair_hmm():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        model = random_model(rng, n=n, d=2, eps=1.0)
        T = int(rng.integers(1, 6))
        f = rng.normal(size=(T, 2))
        g = rng.normal(size=(T, 2))
        lat, got = ahmm_forward(model, f, g)
        want = pair_hmm_loglik(model, f, g)
        assert got == pytest.approx(want, rel=1e-9)
        # only the diagonal s == t carries mass
        for t in range(T):
            finite = np.isfinite(lat[t]).nonzero()[0]
            assert set(finite.tolist()) <= {t + 1}


def test_eps_one_single_state_equals_summed_joint_density():
    rng = np.random.default_rng(13)
    model = random_model(rng, n=1, d=1, eps=1.0)
    f = rng.normal(size=(3, 1))
    g = rng.normal(size=(3, 1))
    _, got = ahmm_forward(model, f, g)
    want = math.log(model.entry[0]) + math.log(model.exit[0])
    want += 2 * math.log(model.trans[0, 0])
    for t in range(3):
        want += float(model.joint[0].log_density(np.concatenate([f[t], g[t]])))
    assert got == pytest.approx(want, rel=1e-9)


def test_two_term_hold_advance_sum():
    # N=1, constant eps, T=2, S=1: exhaustive two-path check
    rng = np.random.default_rng(3)
    model = random_model(rng, n=1, d=1, eps=0.35)
    fi = rng.normal(size=(1, 1))
    fj = rng.normal(size=(2, 1))
    jfn, mfn = oracle_fns(model, fi, fj)
    want = enumerate_ahmm(model.entry, model.trans, model.exit, model.advance, jfn, mfn, 1, 2)
    _, got = ahmm_forward(model, fi, fj)
    assert got == pytest.approx(want, rel=1e-9)


def test_equal_streams_normalized_lattice():
    rng = np.random.default_rng(8)
    model = random_model(rng, n=2, d=1)
    f = rng.normal(size=(4, 1))
    lat, loglik = ahmm_forward(model, f, f)
    assert np.isfinite(loglik)
    jfn, mfn = oracle_fns(model, f, f)
    masses = enumerate_ahmm_lattice_masses(
        model.entry, model.trans, model.advance, jfn, mfn, 4, 4
    )
    for t in range(4):
        running = np.exp(lat[t]).sum()
        assert running > 0


def test_forward_rejects_bad_input():
    rng = np.random.default_rng(0)
    model = random_model(rng, n=2, d=1)
    with pytest.raises(ValueError):
        ahmm_forward(model, np.zeros((3, 1)), np.zeros((2, 1)))  # S > T
    with pytest.raises(ValueError):
        ahmm_forward(model, np.zeros((0, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ahmm_forward(model, np.zeros((2, 2)), np.zeros((2, 2)))  # dim mismatch


def test_hmm_group_likelihood_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        model = random_model(rng, n=n, d=2)
        T = int(rng.integers(1, 7))
        fa = rng.normal(size=(T, 2))
        logb = [[float(model.marginal[k].log_density(fa[t])) for k in range(n)] for t in range(T)]
        want = enumerate_hmm(model.entry, model.trans, model.exit, logb)
        assert hmm_group_likelihood(model, fa) == pytest.approx(want, rel=1e-9)


def test_hmm_group_likelihood_length_one():
    rng = np.random.default_rng(5)
    model = random_model(rng, n=2, d=1)
    x = np.array([[0.3]])
    want = math.log(
        sum(
            model.entry[k] * math.exp(float(model.marginal[k].log_density(x[0]))) * model.exit[k]
            for k in range(2)
        )
    )
    assert hmm_group_likelihood(model, x) == pytest.approx(want, rel=1e-12)


def test_log_space_safety_long_window():
    # L = 200 with extreme emission log-densities must stay finite
    entry = np.array([0.5, 0.5])
    trans = np.array([[0.6, 0.3], [0.3, 0.6]])
    exit_ = np.array([0.1, 0.1])
    adv = np.array([0.7, 0.7])
    tiny = GaussianMixture(np.array([1.0]), np.array([[0.0] * 2]), np.array([[1e-6] * 2]))
    wide = GaussianMixture(np.array([1.0]), np.array([[0.0] * 4]), np.array([[1e-6] * 4]))
    model = ActivityModel(entry, trans, exit_, adv, (tiny, tiny), (wide, wide))
    rng = np.random.default_rng(1)
    f = rng.normal(scale=40.0, size=(200, 2))  # log-densities around -1e3 per frame
    lat, ll = ahmm_forward(model, f, f)
    assert np.isfinite(ll)
    assert not np.isnan(lat).any()


# --- correlation ---------------------------------------------------------


def walking_pair_tracks(n=30):
    rows = []
    for t in range(n):
        rows.append((t, 1, 1.0 * t, 0.0, 10.0, 20.0))
        rows.append((t, 2, 1.0 * t, 2.0, 10.0, 20.0))
    return TrackSet([MbbSample(*r) for r in rows])


def tiny_bank(make, window=8, dt=2):
    """A bank over the stock modelable labels; ``make(label)`` builds each model."""
    return ActivityModelBank(models={l: make(l) for l in MODELABLE_LABELS}, window=window, dt=dt)


def random_bank(rng, window=8, dt=2):
    return tiny_bank(lambda l: random_model(rng, n=2, d=6), window, dt)


def test_correlation_normalizes_and_ties_break_lexicographically():
    rng = np.random.default_rng(43)
    model = random_model(rng, n=2, d=6)
    bank = tiny_bank(lambda l: model)  # one model under every label
    tracks = walking_pair_tracks()
    prof = correlation(bank, tracks, 1, 2, 20)
    assert bank.labels() == list(MODELABLE_LABELS)  # the profile's column order
    assert prof.sum() == pytest.approx(1.0, abs=1e-9)
    assert prof[0] == pytest.approx(1.0 / len(MODELABLE_LABELS), abs=1e-9)
    assert prof.argmax() == 0  # lexicographic tie-break


def test_correlation_unavailable_window():
    rng = np.random.default_rng(4)
    bank = random_bank(rng)
    tracks = walking_pair_tracks(n=5)
    assert correlation(bank, tracks, 1, 2, 0) is None  # no frame -1
    assert correlation(bank, tracks, 1, 7, 3) is None  # unknown person


def test_asymmetry_check_identical_tracks_equal_profiles():
    rng = np.random.default_rng(9)
    bank = random_bank(rng)
    rows = []
    for t in range(20):
        rows.append((t, 1, 3.0 * t, 1.0, 10.0, 20.0))
        rows.append((t, 2, 3.0 * t, 1.0, 10.0, 20.0))
    tracks = TrackSet([MbbSample(*r) for r in rows])
    pij, pji = correlation(bank, tracks, 1, 2, 15), correlation(bank, tracks, 2, 1, 15)
    assert pij == pytest.approx(pji, rel=1e-9)
    assert pij.sum() == pytest.approx(1.0, abs=1e-9)
    assert pji.sum() == pytest.approx(1.0, abs=1e-9)


def test_label_argmax_scale_invariance():
    # multiplying every activity's lattice mass by a common factor cannot
    # change the label: correlation values are a normalized family
    rng = np.random.default_rng(12)
    bank = random_bank(rng)
    tracks = walking_pair_tracks()
    prof = correlation(bank, tracks, 1, 2, 20)
    masses = {
        l: window_log_mass(m, *_windows(bank, tracks, 1, 2, 20), bank.dt)
        for l, m in bank.models.items()
    }
    shifted = {l: m + 123.456 for l, m in masses.items()}
    assert max(sorted(shifted), key=lambda l: shifted[l]) == bank.labels()[prof.argmax()]


def _windows(bank, tracks, a, b, t):
    from groupact import features as feats

    return feats.pair_feature_windows(tracks, (a,), (b,), t, bank.window)


def test_engine_matches_reference_correlation():
    rng = np.random.default_rng(31)
    bank = random_bank(rng, window=6, dt=2)
    rows = []
    rng2 = np.random.default_rng(55)
    for t in range(15):
        for p in (1, 2, 3):
            x, y = rng2.normal(scale=5.0, size=2)
            rows.append((t, p, float(x), float(y), 8.0 + rng2.random(), 18.0))
    tracks = TrackSet([MbbSample(*r) for r in rows])
    engine = CorrelationEngine(bank, tracks)
    for t in (8, 12):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a == b:
                    continue
                ref = correlation(bank, tracks, a, b, t)
                got = engine.profile(a, b, t)
                assert (ref is None) == (got is None)
                if ref is not None:
                    assert got == pytest.approx(ref, abs=1e-9)
                    assert got.argmax() == ref.argmax()
    # entity (set-valued) arguments agree too
    ref = correlation(bank, tracks, 1, (2, 3), 12)
    got = engine.profile(1, (2, 3), 12)
    assert got == pytest.approx(ref, abs=1e-9)

    # the engine's banded lattice against the full scalar lattice, for every
    # window/dt pair, with dropped samples leaving short and missing windows
    shapes = {"short": 0, "none": 0}
    items = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    for window in range(2, 10):
        for dt in range(window):
            rng3 = np.random.default_rng(100 * window + dt)
            keep = rng3.random(len(rows)) > 0.2
            gappy = TrackSet([MbbSample(*r) for r, k in zip(rows, keep) if k])
            engine = CorrelationEngine(bank, gappy, window=window, dt=dt)
            for t in (9, 11, 14):
                got = engine.profiles(items, t)
                for a, b in items:
                    ref = correlation(bank, gappy, a, b, t, window=window, dt=dt)
                    prof = got[((a,), (b,))]
                    assert (ref is None) == (prof is None)
                    if ref is None:
                        shapes["none"] += 1
                        continue
                    n = len(pair_feature_windows(gappy, a, b, t, window)[0])
                    shapes["short"] += n <= dt
                    assert prof == pytest.approx(ref, abs=1e-9)
                    assert prof.argmax() == ref.argmax()
    assert shapes["short"] > 0 and shapes["none"] > 0


def _wide_bank():
    """Random pair models broad enough that profiles stay far from one-hot
    at 4K-frame coordinates, so a changed lattice cell shows in the values."""
    rng = np.random.default_rng(77)

    def widen(g):
        return GaussianMixture(g.weights, g.means * 300.0, g.variances * 1e7)

    def make(label):
        m = random_model(rng, n=2, d=6)
        return replace(m, marginal=tuple(map(widen, m.marginal)), joint=tuple(map(widen, m.joint)))

    return tiny_bank(make)


WIDE_BANK = _wide_bank()


@settings(max_examples=40, deadline=None)
@given(
    ragged_tracks(min_frames=8, max_frames=24, present=st.integers(0, 15).map(bool)),
    st.integers(2, 8),
    st.data(),
)
def test_engine_reusing_rows_in_any_frame_order_matches_a_fresh_engine(tracks, window, data):
    """One engine visits a drawn frame sequence: consecutive steps, repeats,
    backward steps and jumps past the window.  Each frame's profiles equal a
    fresh engine's, and no frame outside the window keeps emission rows."""
    dt = data.draw(st.integers(0, window - 1), label="dt")
    lo, hi = tracks.frame_range
    t = data.draw(st.integers(lo + 1, max(lo + 1, hi)), label="first frame")
    steps = data.draw(st.lists(
        st.one_of(st.just(1), st.integers(-2, 0), st.integers(-2 * window, 2 * window)),
        min_size=1, max_size=10,
    ), label="steps")
    persons = tracks.persons
    items = [((a,), (b,)) for a in persons for b in persons if a != b]
    if len(persons) >= 3:  # a two-member entity on both sides
        pair = tuple(persons[1:3])
        items += [((persons[0],), pair), (pair, (persons[0],))]
    engine = CorrelationEngine(WIDE_BANK, tracks, window=window, dt=dt)
    for step in [0] + steps:
        t = min(max(t + step, lo + 1), hi)
        got = engine.profiles(items, t)
        assert all(t - window < u <= t for u in engine._blocks)
        want = CorrelationEngine(WIDE_BANK, tracks, window=window, dt=dt).profiles(items, t)
        assert got.keys() == want.keys()
        for key, ref in want.items():
            prof = got[key]
            assert (prof is None) == (ref is None)
            if ref is not None:
                assert prof.argmax() == ref.argmax()
                assert np.all(np.abs(prof - ref) <= 1e-12)


def band_forward(log_entry, log_trans, ae, hm, add=np.logaddexp):
    """``_band_forward`` over items on axis 1 of (T, B, ..., D, n) arrays,
    its steps stacked back into that layout."""
    steps = seqmodel._band_forward(log_entry[..., None], log_trans[..., None],
                                   np.moveaxis(ae, 1, -1), np.moveaxis(hm, 1, -1), add)
    return tuple(np.moveaxis(np.stack(xs), -1, 1) for xs in zip(*steps))


def test_band_kernel_keeps_dead_items_and_states_at_minus_inf():
    """An item whose every emission is impossible and a state nothing enters
    give -inf, never NaN, and raise no warning, under both semirings."""
    rng = np.random.default_rng(8)
    T, D = 5, 3
    ae = rng.normal(size=(T, 3, D, 2))
    hm = rng.normal(size=(T, 3, 2))
    for t in range(D - 1):
        ae[t, :, t + 1 :] = -np.inf  # nothing to consume before the first stream starts
    ae[:, 1] = -np.inf
    hm[:, 1] = -np.inf
    # state 0 has no entry and no transition into it
    model = replace(random_model(rng, n=2, d=1), entry=np.array([0.0, 1.0]),
                    trans=np.array([[0.0, 0.7], [0.0, 0.8]]), exit=np.array([0.3, 0.2]))
    log_entry, log_trans = seqmodel._log(model.entry), seqmodel._log(model.trans)
    live = [0, 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for add in (np.logaddexp, np.maximum):
            tin, la = band_forward(log_entry, log_trans, ae, hm, add)
            _, la_one = band_forward(log_entry[1:], log_trans[1:, 1:], ae[..., 1:], hm[..., 1:], add)
            assert not np.isnan(tin).any() and not np.isnan(la).any()
            assert np.all(la[:, 1] == -np.inf) and np.all(la[..., 0] == -np.inf)
            # the dead state adds exactly nothing to the live one
            np.testing.assert_array_equal(la[..., 1:], la_one)
        stats = seqmodel._EmStats(2, TrainConfig())
        total, adv, hold = seqmodel._band_posteriors(model, ae[:, live], hm[:, live], stats)
        with pytest.raises(DataError, match="zero likelihood"):
            seqmodel._band_posteriors(model, ae, hm, seqmodel._EmStats(2, TrainConfig()))
    assert np.all(np.isfinite(total))
    assert not np.isnan(adv).any() and not np.isnan(hold).any()
    assert np.all(adv[..., 0] == 0.0) and np.all(hold[..., 0] == 0.0)
    for counts in (stats.entry, stats.trans, stats.exit, adv.sum(axis=(0, 1, 2)), hold.sum(axis=(0, 1))):
        assert np.all(np.isfinite(counts))


def test_max_plus_band_kernel_finds_the_heaviest_path_and_bounds_the_mass():
    """Under ``add=np.maximum`` the band kernel's final cells hold the heaviest
    path weight of path enumeration, under ``np.logaddexp`` the enumerated
    mass, and on every item's read-out ``V <= mass <= V + T log(2n)``."""
    rng = np.random.default_rng(41)
    for case in range(30):
        n = int(rng.integers(1, 4))
        model = random_model(rng, n=n, d=1)
        T = int(rng.integers(1, 6))
        S = int(rng.integers(1, T + 1))
        B = 3
        log_eps, log_hold = seqmodel._log(model.advance), seqmodel._log(1.0 - model.advance)
        # every band cell: the last step's cell h is alignment s = T - h
        ae = np.full((T, T + 1, n, B), -np.inf)
        hm = np.empty((T, n, B))
        best, masses = [], []
        for b in range(B):
            fi, fj = rng.normal(size=(S, 1)), rng.normal(size=(T, 1))
            jfn, mfn = oracle_fns(model, fi, fj)
            for t in range(T):
                for k in range(n):
                    hm[t, k, b] = log_hold[k] + mfn(k, t)
                    for h in range(max(0, t - S + 1), t + 1):
                        ae[t, h, k, b] = log_eps[k] + jfn(k, t - h, t)
            args = (model.entry, model.trans, model.advance, jfn, mfn, S, T)
            best.append(enumerate_ahmm_lattice_best(*args))
            masses.append(enumerate_ahmm_lattice_masses(*args))
        log_entry, log_trans = seqmodel._log(model.entry)[:, None], seqmodel._log(model.trans)[..., None]
        for _, v in seqmodel._band_forward(log_entry, log_trans, ae, hm, np.maximum):
            pass
        for _, la in seqmodel._band_forward(log_entry, log_trans, ae, hm):
            pass
        for b in range(B):
            got_v, got_m = v[::-1, :, b], la[::-1, :, b]  # row s of the lattice
            np.testing.assert_allclose(got_v[: S + 1], best[b], rtol=1e-12, err_msg=f"case {case}")
            np.testing.assert_allclose(np.exp(got_m[: S + 1]), masses[b], rtol=1e-9, atol=1e-300)
            assert np.all(got_v[S + 1 :] == -np.inf) and np.all(got_m[S + 1 :] == -np.inf)
            top, mass = got_v.max(), gmm.logsumexp(got_m)
            assert top - 1e-12 * abs(top) <= mass <= top + T * math.log(2 * n)


def test_one_hot_certificate_keeps_a_relative_slack_at_large_weights():
    """A lead above the fixed margin certifies at small weights; at |V| near
    1e20 it must also clear the rounding slack relative to |V|."""
    T, n = 12, 2
    fixed = 746.0 + T * math.log(2 * n)
    inf = np.inf
    V = np.array([
        # |V| ~ 1e20: a lead of 2**20 nats clears the fixed margin only; 2**40 clears both
        [-1e20, -1e20, -5.0, -5.0, -5.0, -inf, 3.0],
        [-1e20 - 2.0**20, -1e20 - 2.0**40, -5.0 - fixed - 40.0, -5.0 - fixed, -inf, -inf, 3.0],
        [-1e20 - 2.0**41, -inf, -inf, -inf, -inf, -inf, -inf],
    ])
    assert V[0, 0] - V[1, 0] == 2.0**20 > fixed + 100.0
    got = seqmodel._open_cells(V, T, n)
    # several open cells: within the relative slack, within the fixed slack,
    # no path at all, and a tie
    assert got.T.astype(int).tolist() == [
        [1, 1, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 1, 0],
    ]
    assert np.array_equal(seqmodel._open_cells(V[::-1], T, n), got[::-1])


def test_profiles_proved_one_hot_equal_the_full_log_space_sweep(frozen_bank):
    """Every profile the engine returns equals, bitwise, the row of the
    log-space sweep of every cell of every item, on ragged tracks at
    4K-frame coordinates and on tracks at the sample bounds; the draws reach
    the rows the max-plus bound proves one-hot, the rows it sweeps with some
    cells closed and the rows it sweeps with every cell open."""
    certify = seqmodel._open_cells
    seen = {"proved": 0, "some closed": 0, "all open": 0}

    def counted(V, T, n):
        cells = certify(V, T, n)
        count = cells.sum(axis=0)
        seen["proved"] += int(np.count_nonzero(count == 1))
        seen["some closed"] += int(np.count_nonzero((count > 1) & (count < V.shape[0])))
        seen["all open"] += int(np.count_nonzero(count == V.shape[0]))
        return cells

    def never(V, T, n):
        return np.ones(V.shape, dtype=bool)

    # a group walking together: most of its rows stay short of one-hot
    walk = TrackSet([s for s in generate(walk_together(seed=0))[0].iter_samples() if s.frame < 24])

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(ragged_tracks(min_frames=8, max_frames=20), bounded_tracks(max_frames=20)))
    @example(walk)
    def check(tracks):
        persons = tracks.persons
        items = [((a,), (b,)) for a in persons for b in persons if a != b]
        if len(persons) >= 3:
            pair = tuple(persons[1:3])
            items += [((persons[0],), pair), (pair, (persons[0],))]
        engine, full = CorrelationEngine(frozen_bank, tracks), CorrelationEngine(frozen_bank, tracks)
        lo, hi = tracks.frame_range or (0, 0)  # an empty set when no frame was sampled
        for t in range(lo + 1, hi + 1):
            with mock.patch.object(seqmodel, "_open_cells", counted):
                got = engine.profiles(items, t)
            with mock.patch.object(seqmodel, "_open_cells", never):
                want = full.profiles(items, t)
            assert got.keys() == want.keys()
            for key, ref in want.items():
                assert (got[key] is None) == (ref is None)
                assert ref is None or np.array_equal(got[key], ref), (key, t, got[key], ref)

    check()
    assert min(seen.values()) > 0, seen


def test_a_call_whose_pairs_are_all_cached_reads_only_the_cache(frozen_bank):
    """Repeating a warmed engine's call at the same frame, with the entities
    in any accepted form, returns the same row objects and builds no window
    batch and no emission rows."""
    tracks = generate(walk_together(seed=0))[0]
    persons = tracks.persons
    items = [((a,), (b,)) for a in persons for b in persons if a != b]
    items += [((persons[0],), tuple(persons[1:3])), (tuple(persons[1:3]), (persons[0],))]
    engine = CorrelationEngine(frozen_bank, tracks)
    for t in range(10, 20):
        first = engine.profiles(items, t)
    assert sum(row is not None for row in first.values()) == len(items)

    def unreachable(*args, **kwargs):
        raise AssertionError("a cached call computed something")

    forms = [(np.int64(a[0]) if len(a) == 1 else set(a), list(reversed(b))) for a, b in items]
    with mock.patch("groupact.features.pair_window_batch", unreachable), \
            mock.patch.object(CorrelationEngine, "_emission_rows", unreachable):
        for asked in (items, forms):
            again = engine.profiles(asked, 19)
            assert list(again) == list(first)
            assert all(again[key] is row for key, row in first.items())
        assert all(engine.profile(*key, 19) is row for key, row in first.items())


def test_emission_slots_hold_only_the_pairs_of_the_window(frozen_bank):
    """Entities that change from frame to frame free their emission slots
    once their last row leaves the window, so over a long clip the slots are
    those of the pairs with a window in the last ``window`` frames."""
    tracks = generate(walk_together(seed=0))[0]
    persons = tracks.persons
    entities = [(a, b) for a in persons for b in persons if a < b]  # a new one every frame
    engine = CorrelationEngine(frozen_bank, tracks)
    W = engine.window
    computed = {}
    for t in range(1, 200):
        entity = entities[t % len(entities)]
        items = [((a,), (b,)) for a in persons for b in persons if a != b]
        items += [((p,), entity) for p in persons if p not in entity]
        computed[t] = {key for key, row in engine.profiles(items, t).items() if row is not None}
        window_keys = set().union(*(computed.get(u, set()) for u in range(t - W + 1, t + 1)))
        assert engine._slots.keys() == window_keys
        assert len(set(engine._slots.values())) == len(window_keys)
        assert max(engine._slots.values(), default=-1) < engine._size <= 2 * len(window_keys)


def test_profiles_peak_memory_stays_within_one_step_of_the_sweep(frozen_bank):
    """The tracemalloc peak of one ``profiles`` call of a warmed engine on 306
    person pairs stays under a fixed term plus 8 KiB per pair, whether the
    max-plus bound proves the rows one-hot or the log-space sweep runs on
    every cell of them all.  A sweep that kept every step's (T, A, D, n, I) masses needs about
    10 KiB more per pair."""
    rng = np.random.default_rng(5)
    rows = []
    for p in range(18):
        vx, vy = rng.normal(0.0, 1.5, size=2)
        for t in range(32):
            x, y = (p % 6) * 30.0 + t * vx, (p // 6) * 30.0 + t * vy
            rows.append(MbbSample(t, p, x + rng.normal(0.0, 0.3), y + rng.normal(0.0, 0.3), 20.0, 50.0))
    tracks = TrackSet(rows)
    items = [(a, b) for a in range(18) for b in range(18) if a != b]

    def peak_of_last_frame():
        engine = CorrelationEngine(frozen_bank, tracks)
        for t in range(18, 30):
            engine.profiles(items, t)
        tracemalloc.start()
        try:
            got = engine.profiles(items, 30)
            return tracemalloc.get_traced_memory()[1], got
        finally:
            tracemalloc.stop()

    bound = 256 * 1024 + 8 * 1024 * len(items)
    peak, got = peak_of_last_frame()
    assert peak <= bound
    with mock.patch.object(seqmodel, "_open_cells", lambda V, T, n: np.ones(V.shape, dtype=bool)):
        peak_swept, swept = peak_of_last_frame()
    assert peak_swept <= bound
    assert all(np.array_equal(got[key], swept[key]) for key in swept)


# --- training -------------------------------------------------------------


def sample_episode(model, T, rng):
    """Draw (fi, fj) from the generative story; S emerges from the branch draws."""
    n = model.n_states
    fi, fj = [], []
    k = rng.choice(n, p=model.entry)
    for t in range(T):
        if t > 0:
            row = model.trans[k] / model.trans[k].sum()
            k = rng.choice(n, p=row)
        if rng.random() < model.advance[k]:
            g = model.joint[k]
            c = rng.choice(g.n_components, p=g.weights)
            x = rng.normal(g.means[c], np.sqrt(g.variances[c]))
            d = model.obs_dim
            fi.append(x[:d])
            fj.append(x[d:])
        else:
            g = model.marginal[k]
            c = rng.choice(g.n_components, p=g.weights)
            fj.append(rng.normal(g.means[c], np.sqrt(g.variances[c])))
    if not fi:
        return None
    return np.array(fi), np.array(fj)


def test_training_monotone_and_deterministic():
    rng = np.random.default_rng(100)
    gen = random_model(rng, n=2, d=2, eps=0.75)
    segs = []
    while len(segs) < 12:
        ep = sample_episode(gen, 12, rng)
        if ep is not None:
            segs.append(ep)
    cfg = TrainConfig(seed=5, max_iters=15, max_segments=None)
    m1, hist = train_activity_model(segs, cfg)
    for a, b in zip(hist, hist[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))
    m2, _ = train_activity_model(segs, cfg)
    assert np.array_equal(m1.trans, m2.trans)
    assert np.array_equal(m1.advance, m2.advance)
    for g1, g2 in zip(m1.marginal, m2.marginal):
        assert np.array_equal(g1.means, g2.means)


def test_training_recovers_heldout_likelihood():
    rng = np.random.default_rng(200)
    gen = random_model(rng, n=2, d=1, eps=0.7)
    train, held = [], []
    while len(train) < 30:
        ep = sample_episode(gen, 10, rng)
        if ep is not None:
            train.append(ep)
    while len(held) < 15:
        ep = sample_episode(gen, 10, rng)
        if ep is not None:
            held.append(ep)
    cfg = TrainConfig(seed=3, max_iters=30, max_segments=None)
    fitted, _ = train_activity_model(train, cfg)

    def total_ll(model):
        return sum(ahmm_forward(model, fi, fj)[1] for fi, fj in held)

    ll_gen = total_ll(gen)
    ll_fit = total_ll(fitted)
    assert ll_fit >= ll_gen - 0.05 * abs(ll_gen)


def test_training_degenerate_constant_segment():
    fi = np.zeros((6, 2))
    fj = np.zeros((6, 2))
    cfg = TrainConfig(seed=0, max_iters=8)
    model, hist = train_activity_model([(fi, fj)], cfg)
    assert model.mixture_fallback  # not enough distinct data for 2 mixtures per state
    for g in model.marginal + model.joint:
        assert np.all(np.isfinite(g.means))
        assert np.all(g.variances >= 1e-6 * (1 - 1e-12))
    for a, b in zip(hist, hist[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))


def test_training_rejects_empty_and_misordered():
    with pytest.raises(DataError):
        train_activity_model([])
    with pytest.raises(DataError):
        train_activity_model([(np.zeros((3, 1)), np.zeros((2, 1)))])


def test_train_bank_and_banks_take_window_and_dt_from_the_caller():
    # no default of their own: `groupact train --window/--dt` holds the only one
    with pytest.raises(TypeError):
        train_bank(TrackSet([]), AnnotationSet([]))
    with pytest.raises(TypeError):
        ActivityModelBank(models={})


def test_train_hmm_model_monotone():
    rng = np.random.default_rng(17)
    seqs = [rng.normal(size=(12, 3)) + np.array([0.0, 5.0, -2.0]) for _ in range(8)]
    cfg = TrainConfig(seed=1, max_iters=12)
    model, hist = train_hmm_model(seqs, cfg)
    assert model.advance is None
    for a, b in zip(hist, hist[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))


def test_fixed_advance_training_keeps_eps_pinned(monkeypatch):
    monkeypatch.setattr(seqmodel, "N_MIXTURES", 1)
    rng = np.random.default_rng(23)
    segs = []
    for _ in range(6):
        f = rng.normal(size=(8, 1))
        g = rng.normal(size=(8, 1))
        segs.append((f, g))
    cfg = TrainConfig(seed=2, max_iters=6, fix_advance=1.0)
    model, _ = train_activity_model(segs, cfg)
    assert np.all(model.advance == 1.0)


def _with_ones(rows):
    x = np.concatenate(rows)
    return np.column_stack([np.ones(len(x)), x])


def _oracle_counts(model, segs, slack):
    """Summed enumerated E-step counts plus the total log-likelihood."""
    total, want = 0.0, None
    for fi, fj in segs:
        S, T = fi.shape[0], fj.shape[0]
        jfn, mfn = oracle_fns(model, fi, fj)
        args = (model.entry, model.trans, model.exit, model.advance, jfn, mfn, S, T)
        total += enumerate_ahmm(*args, terminal_slack=slack)
        c = enumerate_ahmm_counts(*args, terminal_slack=slack)
        # weighted moments of the emission data, with a leading column of ones
        pairs = np.array([[1.0, *fi[s], *fj[t]] for s in range(S) for t in range(T)])
        c["joint"] = c.pop("adv").reshape(S * T, -1).T @ pairs
        c["marg"] = c["hold"].T @ np.column_stack([np.ones(T), fj])
        c["adv"] = c["joint"][:, 0]
        c["hold"] = c["marg"][:, 0]
        want = c if want is None else {k: want[k] + c[k] for k in want}
    return total, want


@pytest.mark.parametrize("slack, fix_advance", [(0, None), (1, None), (9, None), (3, 0.6), (3, 1.0)])
def test_em_counts_match_enumeration(monkeypatch, slack, fix_advance):
    """Every E-step of one mixed-shape training run against brute-force counts."""
    rng = np.random.default_rng(300 + slack)
    shapes = [(4, 4), (2, 4), (3, 3), (3, 4), (4, 4), (1, 3)]
    if fix_advance == 1.0:  # only equal lengths have an all-advance path
        shapes = [(4, 4), (3, 3), (4, 4), (2, 2)]
    segs = [(rng.normal(size=(S, 2)), rng.normal(size=(T, 2))) for S, T in shapes]
    seen = []
    m_step = seqmodel._EmStats.m_step

    def spy(stats, model):
        seen.append((stats, model))
        return m_step(stats, model)

    monkeypatch.setattr(seqmodel._EmStats, "m_step", spy)
    monkeypatch.setattr(seqmodel, "N_MIXTURES", 1)
    monkeypatch.setattr(gmm, "EM_TOL", 0.0)
    cfg = TrainConfig(seed=4, max_iters=3, max_segments=None, fix_advance=fix_advance)
    _, hist = train_activity_model(segs, cfg, terminal_slack=slack)
    assert len(seen) == len(hist) == 3
    used_slack = 0 if fix_advance is not None else slack
    for (stats, model), ll in zip(seen, hist):
        want_ll, want = _oracle_counts(model, segs, used_slack)
        assert ll == pytest.approx(want_ll, rel=1e-9)
        got = {
            "entry": stats.entry, "exit": stats.exit, "trans": stats.trans,
            "adv": np.concatenate(stats.joint_w).sum(axis=0),
            "hold": np.concatenate(stats.marg_w).sum(axis=0),
            "joint": np.concatenate(stats.joint_w).T @ _with_ones(stats.joint_x),
            "marg": np.concatenate(stats.marg_w).T @ _with_ones(stats.marg_x),
        }
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-9, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("S, T, slack", [(2, 4, 0), (3, 4, 1), (4, 4, 0), (2, 5, 7)])
def test_batched_estep_loglik_per_segment(S, T, slack):
    rng = np.random.default_rng(10 * S + T)
    model = random_model(rng, n=2, d=1)
    fi = rng.normal(size=(3, S, 1))
    fj = rng.normal(size=(3, T, 1))
    stats = seqmodel._EmStats(2, TrainConfig())
    got = seqmodel._accumulate_batch(model, fi, fj, stats, slack)
    for b in range(3):
        jfn, mfn = oracle_fns(model, fi[b], fj[b])
        want = enumerate_ahmm(
            model.entry, model.trans, model.exit, model.advance, jfn, mfn, S, T,
            terminal_slack=slack,
        )
        assert got[b] == pytest.approx(want, rel=1e-9)


def test_zero_likelihood_segment_raises(monkeypatch):
    # advance pinned at one cannot align a shorter first stream
    monkeypatch.setattr(seqmodel, "N_MIXTURES", 1)
    segs = [(np.zeros((4, 1)), np.ones((4, 1))), (np.zeros((2, 1)), np.ones((3, 1)))]
    cfg = TrainConfig(max_iters=2, fix_advance=1.0)
    with pytest.raises(DataError, match="zero likelihood"):
        train_activity_model(segs, cfg)


def test_train_hmm_model_loglik_matches_enumeration(monkeypatch):
    monkeypatch.setattr(seqmodel, "N_MIXTURES", 1)
    rng = np.random.default_rng(41)
    seqs = [rng.normal(size=(T, 2)) for T in (3, 5, 4, 3, 5, 1)]
    cfg = TrainConfig(seed=2, max_iters=1)
    m1, _ = train_hmm_model(seqs, cfg)
    _, hist = train_hmm_model(seqs, replace(cfg, max_iters=2))
    want = 0.0
    for s in seqs:
        logb = [[float(m1.marginal[k].log_density(s[t])) for k in range(2)] for t in range(len(s))]
        want += enumerate_hmm(m1.entry, m1.trans, m1.exit, logb)
    assert hist[1] == pytest.approx(want, rel=1e-9)


def test_hmm_em_counts_match_enumeration(monkeypatch):
    """Every E-step of one mixed-length group-model run against brute-force counts."""
    rng = np.random.default_rng(43)
    seqs = [rng.normal(size=(T, 2)) for T in (3, 5, 1, 4, 3, 5, 1)]
    seen = []
    m_step = seqmodel._EmStats.m_step

    def spy(stats, model):
        seen.append((stats, model))
        return m_step(stats, model)

    monkeypatch.setattr(seqmodel._EmStats, "m_step", spy)
    monkeypatch.setattr(seqmodel, "N_MIXTURES", 1)
    monkeypatch.setattr(gmm, "EM_TOL", 0.0)
    cfg = TrainConfig(seed=2, max_iters=3, max_segments=None)
    _, hist = train_hmm_model(seqs, cfg)
    assert len(seen) == len(hist) == 3
    for (stats, model), ll in zip(seen, hist):
        want_ll = 0.0
        want = {"entry": 0.0, "exit": 0.0, "trans": 0.0}
        # every frame is a distinct row, so its weight row can be looked up by value
        got_occupancy = {
            tuple(x): w for x, w in zip(np.concatenate(stats.marg_x), np.concatenate(stats.marg_w))
        }
        assert len(got_occupancy) == sum(len(s) for s in seqs)
        for s in seqs:
            logb = [[float(model.marginal[k].log_density(x)) for k in range(2)] for x in s]
            want_ll += enumerate_hmm(model.entry, model.trans, model.exit, logb)
            c = enumerate_hmm_counts(model.entry, model.trans, model.exit, logb)
            for key in want:
                want[key] = want[key] + c[key]
            for x, occ in zip(s, c["occupancy"]):
                np.testing.assert_allclose(got_occupancy[tuple(x)], occ, rtol=1e-9, atol=1e-12)
        assert ll == pytest.approx(want_ll, rel=1e-9)
        for key in want:
            got = getattr(stats, key)
            np.testing.assert_allclose(got, want[key], rtol=1e-9, atol=1e-12, err_msg=key)


def test_group_likelihood_factorized_cross_check():
    # joint components with identical blocks and a shared variance make the
    # advance-only pair run equal the synchronous group run up to a constant
    rng = np.random.default_rng(71)
    n, d = 2, 2
    var = rng.random(d) + 0.3
    entry = np.array([0.4, 0.6])
    raw = rng.random((n, n + 1)) + 0.1
    raw /= raw.sum(axis=1, keepdims=True)
    means = rng.normal(scale=2.0, size=(n, d))
    marginal = tuple(
        GaussianMixture(np.array([1.0]), means[k][None, :], (var / 2.0)[None, :])
        for k in range(n)
    )
    joint = tuple(
        GaussianMixture(
            np.array([1.0]),
            np.concatenate([means[k], means[k]])[None, :],
            np.concatenate([var, var])[None, :],
        )
        for k in range(n)
    )
    model = ActivityModel(entry, raw[:, :n], raw[:, n], np.ones(n), marginal, joint)
    fa = rng.normal(size=(6, d))
    _, paired = ahmm_forward(model, fa, fa)
    grouped = hmm_group_likelihood(model, fa)
    log_c = float(-0.5 * np.sum(np.log(4.0 * np.pi * var)))
    assert paired == pytest.approx(grouped + fa.shape[0] * log_c, rel=1e-9)


def test_directional_model_prefers_trained_order(bank):
    """A model of an order-dependent activity scores its trained order higher."""
    from groupact import features as feats

    from scenarios import approach, chase

    tracks, _ = generate(approach(seed=8))
    model = bank.models["Approach"]
    for t in range(40, 290, 30):
        fwd = feats.pair_feature_windows(tracks, (5,), (1, 2), t, bank.window)
        rev = feats.pair_feature_windows(tracks, (1, 2), (5,), t, bank.window)
        m_fwd = window_log_mass(model, *fwd, bank.dt)
        m_rev = window_log_mass(model, *rev, bank.dt)
        assert m_fwd > m_rev, f"frame {t}: {m_fwd} <= {m_rev}"
    # both orders of a follow scenario still yield valid distributions
    tracks2, _ = generate(chase(seed=6))
    for p in (correlation(bank, tracks2, 5, 1, 150), correlation(bank, tracks2, 1, 5, 150)):
        assert p is not None
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_batched_density_matches_each_mixture_at_tiled_4k_coordinates(frozen_bank):
    """Pair rows with |avg_dist| >= 8000 px: the batched density stays within 1e-10 relative."""
    rng = np.random.default_rng(3)
    window = frozen_bank.window
    # two 3840x2160 scenes tiled (5, 4) frames apart: every cross pair is >= 16000 px apart
    rows = []
    for p in range(16):
        off = (0.0, 0.0) if p < 8 else (5 * 3840.0, 4 * 2160.0)
        x, y = off[0] + rng.uniform(0, 3840), off[1] + rng.uniform(0, 2160)
        vx, vy = rng.normal(0.0, 2.0, size=2)
        w, h = rng.uniform(20, 60), rng.uniform(60, 160)
        for t in range(window + 1):
            jw, jh = 1.0 + 0.02 * rng.standard_normal(2)
            rows.append(MbbSample(t, p, x + t * vx, y + t * vy, w * jw, h * jh))
    tracks = TrackSet(rows)
    marg, joint = [], []
    for a in range(8):
        for b in range(8, 16):
            for s, o in ((a, b), (b, a)):
                fa, fb = pair_feature_windows(tracks, s, o, window, window)
                marg.append(fb)
                joint.append(np.concatenate([fa, fb], axis=1))
    marg, joint = np.concatenate(marg), np.concatenate(joint)
    assert marg.shape[0] == 128 * window and np.abs(marg[:, 3]).min() >= 8000.0
    models = [frozen_bank.models[l] for l in frozen_bank.labels()]
    for mixtures, x in (([m.marginal for m in models], marg), ([m.joint for m in models], joint)):
        got = seqmodel._BatchGmm([list(row) for row in mixtures], x.shape[1]).log_density(x)
        for a, row in enumerate(mixtures):
            for k, g in enumerate(row):
                ref = g.log_density(x)
                assert np.all(np.abs(got[:, a, k] - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
