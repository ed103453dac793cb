"""Independent brute-force oracles for the features and the sequence-model recursions,
and the scalar reference of the asynchronous pair model.

The enumeration oracles deliberately avoid the library's code paths: feature
rows are scalar re-derivations from raw box samples, and likelihoods are
computed by exhaustive enumeration over monotone alignments and state paths,
feasible for the short sequences used in tests.

``parse_tracks_per_line`` is the line-by-line track parser that the column
parser replaced, plus the person-id rule: each line is checked as it is
read, against the samples kept so far.  ``sample`` looks one sample up by
scanning a person's arrays, where ``TrackSet.has`` searches them.

The scalar reference (``ahmm_forward``, ``window_log_mass``,
``pair_hmm_loglik`` and ``correlation``) is the textbook forward recursion
over the full alignment lattice, one activity and one pair at a time.  It
reuses the library in three places: every emission is a
``GaussianMixture.log_density`` of the model, ``pair_hmm_loglik`` runs the
library's synchronous forward ``seqmodel._hmm_loglik``, and ``correlation``
reads its streams from ``features.pair_feature_windows``.

``member_log_scores`` is the group-representative score one member at a
time, each member's density from its own single-pair observation.
"""

from __future__ import annotations

import io
import itertools
import math

import numpy as np

from groupact import features as feats
from groupact.gmm import logsumexp
from groupact.seqmodel import ActivityModel, ActivityModelBank, _hmm_loglik, _log
from groupact.trackio import _BOUNDS, COORD_MAX, MAX_FRAME, SIZE_MAX, SIZE_MIN, MbbSample, ParseError, TrackSet


def sample(tracks: TrackSet, person: int, frame: int) -> MbbSample | None:
    """The sample of ``person`` at ``frame``, or None: a scan of the person's arrays."""
    frames, xywh = tracks.person_arrays(person)
    for k, f in enumerate(frames.tolist()):
        if f == frame:
            return MbbSample(f, person, *xywh[:, k].tolist())
    return None


def normal_logpdf(x, mean, var):
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    return float(np.sum(-0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)))


def mixture_logpdf(x, weights, means, variances):
    terms = [
        math.log(w) + normal_logpdf(x, m, v)
        for w, m, v in zip(weights, means, variances)
    ]
    hi = max(terms)
    return hi + math.log(sum(math.exp(t - hi) for t in terms))


def _direction(cur, prev) -> float:
    if cur.x == prev.x and cur.y == prev.y:
        return 0.0
    return math.atan2(cur.y - prev.y, cur.x - prev.x)


def pair_feature_row(cur_i, prev_i, cur_j, prev_j) -> tuple[float, ...]:
    """The six pair features of person i relative to person j at one frame.

    Arguments are the ``MbbSample``s of i and j at the frame and the one before.
    """
    cow = abs(cur_i.w - prev_i.w) / cur_i.w
    coh = abs(cur_i.h - prev_i.h) / cur_i.h
    speed_i = math.hypot(cur_i.x - prev_i.x, cur_i.y - prev_i.y)
    speed_j = math.hypot(cur_j.x - prev_j.x, cur_j.y - prev_j.y)
    avg_dist = math.hypot(cur_i.x - (cur_i.x + cur_j.x) / 2, cur_i.y - (cur_i.y + cur_j.y) / 2)
    ang = _direction(cur_i, prev_i) - _direction(cur_j, prev_j)
    while ang <= -math.pi:
        ang += 2 * math.pi
    while ang > math.pi:
        ang -= 2 * math.pi
    return cow, coh, speed_i, avg_dist, (speed_i - speed_j) / 2, ang


def group_feature_row(cur, prev) -> tuple[float, ...]:
    """The five group features from parallel lists of member samples at t and t-1."""
    n = len(cur)
    speeds = [math.hypot(c.x - p.x, c.y - p.y) for c, p in zip(cur, prev)]
    cx = sum(c.x for c in cur) / n
    cy = sum(c.y for c in cur) / n
    avg_speed = sum(speeds) / n
    return (
        sum(abs(c.w - p.w) / c.w for c, p in zip(cur, prev)) / n,
        sum(abs(c.h - p.h) / c.h for c, p in zip(cur, prev)) / n,
        avg_speed,
        sum(math.hypot(c.x - cx, c.y - cy) for c in cur) / n,
        sum((s - avg_speed) ** 2 for s in speeds) / n,
    )


def _branch_sequences(T: int, S: int, terminal_slack: int):
    """All advance/hold decision strings with a feasible final alignment."""
    lo = max(0, S - terminal_slack)
    for bits in itertools.product((0, 1), repeat=T):
        s = 0
        ok = True
        for b in bits:
            s += b
            if s > S:
                ok = False
                break
        if ok and lo <= s <= S:
            yield bits


def _weighted_paths(
    entry, trans, exit_, eps, joint_logpdf, marg_logpdf, S: int, T: int, terminal_slack: int
):
    """Every (branch string, state path, probability including exit)."""
    n = len(entry)
    for bits in _branch_sequences(T, S, terminal_slack):
        for path in itertools.product(range(n), repeat=T):
            p = entry[path[0]]
            s = 0
            for t in range(T):
                k = path[t]
                if t > 0:
                    p *= trans[path[t - 1]][k]
                if bits[t]:
                    p *= eps[k] * math.exp(joint_logpdf(k, s, t))
                    s += 1
                else:
                    p *= (1.0 - eps[k]) * math.exp(marg_logpdf(k, t))
            p *= exit_[path[T - 1]]
            yield bits, path, p


def enumerate_ahmm(
    entry, trans, exit_, eps, joint_logpdf, marg_logpdf, S: int, T: int,
    terminal_slack: int = 0,
) -> float:
    """Total log-likelihood by explicit enumeration.

    ``joint_logpdf(k, s, t)`` scores the pair (fi[s], fj[t]) (0-based) under
    state k; ``marg_logpdf(k, t)`` scores fj[t] alone.
    """
    total = 0.0
    for _, _, p in _weighted_paths(
        entry, trans, exit_, eps, joint_logpdf, marg_logpdf, S, T, terminal_slack
    ):
        total += p
    if total <= 0.0:
        return -math.inf
    return math.log(total)


def enumerate_ahmm_counts(
    entry, trans, exit_, eps, joint_logpdf, marg_logpdf, S: int, T: int,
    terminal_slack: int = 0,
) -> dict[str, np.ndarray]:
    """Posterior expected counts (the Baum-Welch E-step) by explicit enumeration.

    Returns ``entry`` and ``exit`` (n,), the state occupancies at the first
    and last step; ``trans`` (n, n), summed over consecutive steps;
    ``adv`` (S, T, n), the posterior that step t advances in state k while
    consuming fi[s]; and ``hold`` (T, n), that step t holds in state k.
    """
    n = len(entry)
    acc = {
        "entry": np.zeros(n), "exit": np.zeros(n), "trans": np.zeros((n, n)),
        "adv": np.zeros((S, T, n)), "hold": np.zeros((T, n)),
    }
    total = 0.0
    for bits, path, p in _weighted_paths(
        entry, trans, exit_, eps, joint_logpdf, marg_logpdf, S, T, terminal_slack
    ):
        total += p
        acc["entry"][path[0]] += p
        acc["exit"][path[T - 1]] += p
        s = 0
        for t in range(T):
            if t > 0:
                acc["trans"][path[t - 1], path[t]] += p
            if bits[t]:
                acc["adv"][s, t, path[t]] += p
                s += 1
            else:
                acc["hold"][t, path[t]] += p
    if total <= 0.0:
        raise ValueError("zero likelihood: no posterior")
    return {key: v / total for key, v in acc.items()}


def enumerate_ahmm_lattice_masses(
    entry, trans, eps, joint_logpdf, marg_logpdf, S: int, T: int
) -> np.ndarray:
    """Probability mass per (final alignment s, final state k), no exit factor."""
    n = len(entry)
    out = np.zeros((S + 1, n))
    for bits in itertools.product((0, 1), repeat=T):
        s_final = sum(bits)
        if s_final > S:
            continue
        feasible = True
        s = 0
        for b in bits:
            s += b
            if s > S:
                feasible = False
                break
        if not feasible:
            continue
        for path in itertools.product(range(n), repeat=T):
            p = entry[path[0]]
            s = 0
            for t in range(T):
                k = path[t]
                if t > 0:
                    p *= trans[path[t - 1]][k]
                if bits[t]:
                    p *= eps[k] * math.exp(joint_logpdf(k, s, t))
                    s += 1
                else:
                    p *= (1.0 - eps[k]) * math.exp(marg_logpdf(k, t))
            out[s_final, path[T - 1]] += p
    return out


def _hmm_paths(entry, trans, exit_, logb):
    """Every (state path, probability including exit) of a synchronous model."""
    T, n = len(logb), len(entry)
    for path in itertools.product(range(n), repeat=T):
        p = entry[path[0]] * math.exp(logb[0][path[0]])
        for t in range(1, T):
            p *= trans[path[t - 1]][path[t]] * math.exp(logb[t][path[t]])
        p *= exit_[path[T - 1]]
        yield path, p


def enumerate_hmm(entry, trans, exit_, logb) -> float:
    """Synchronous forward likelihood by path enumeration; logb is (T, n)."""
    total = 0.0
    for _, p in _hmm_paths(entry, trans, exit_, logb):
        total += p
    if total <= 0.0:
        return -math.inf
    return math.log(total)


def enumerate_hmm_counts(entry, trans, exit_, logb) -> dict[str, np.ndarray]:
    """Posterior expected counts of a synchronous model by path enumeration.

    Returns ``entry`` and ``exit`` (n,), the state occupancies at the first
    and last step; ``trans`` (n, n), summed over consecutive steps; and
    ``occupancy`` (T, n), the posterior of state k at step t.
    """
    T, n = len(logb), len(entry)
    acc = {
        "entry": np.zeros(n), "exit": np.zeros(n), "trans": np.zeros((n, n)),
        "occupancy": np.zeros((T, n)),
    }
    total = 0.0
    for path, p in _hmm_paths(entry, trans, exit_, logb):
        total += p
        acc["entry"][path[0]] += p
        acc["exit"][path[T - 1]] += p
        for t in range(T):
            if t > 0:
                acc["trans"][path[t - 1], path[t]] += p
            acc["occupancy"][t, path[t]] += p
    if total <= 0.0:
        raise ValueError("zero likelihood: no posterior")
    return {key: v / total for key, v in acc.items()}


# --- scalar AHMM reference -----------------------------------------------


def _emission_tables(model: ActivityModel, fi: np.ndarray, fj: np.ndarray):
    """(T, n) marginal and (S, T, n) joint log-emission tables."""
    T = fj.shape[0]
    S = fi.shape[0]
    n = model.n_states
    logp_m = np.empty((T, n))
    for k in range(n):
        logp_m[:, k] = model.marginal[k].log_density(fj)
    logp_j = None
    if model.joint is not None and S > 0:
        pairs = np.concatenate(
            [
                np.repeat(fi, T, axis=0),
                np.tile(fj, (S, 1)),
            ],
            axis=1,
        )
        logp_j = np.empty((S, T, n))
        for k in range(n):
            logp_j[:, :, k] = model.joint[k].log_density(pairs).reshape(S, T)
    return logp_m, logp_j


def ahmm_forward(
    model: ActivityModel,
    fi: np.ndarray,
    fj: np.ndarray,
    terminal_slack: int = 0,
) -> tuple[np.ndarray, float]:
    """Forward lattice over alignment x state, plus the total log-likelihood.

    ``fi`` is the shorter stream (length S), ``fj`` the longer (length T >= S).
    The returned lattice has shape (T, S+1, n) in log space, where index s
    counts how many ``fi`` observations have been consumed.  The total
    likelihood sums exit probabilities over final alignments within
    ``terminal_slack`` of S.
    """
    fi = np.atleast_2d(np.asarray(fi, dtype=float))
    fj = np.atleast_2d(np.asarray(fj, dtype=float))
    S, T = fi.shape[0], fj.shape[0]
    if S < 1 or T < 1:
        raise ValueError("sequences must be non-empty")
    if S > T:
        raise ValueError(f"first stream longer than second ({S} > {T})")
    if model.joint is None or model.advance is None:
        raise ValueError("model lacks joint emissions / advance probabilities")
    if fi.shape[1] != model.obs_dim or fj.shape[1] != model.obs_dim:
        raise ValueError("observation dimension does not match emission models")

    n = model.n_states
    log_entry = _log(model.entry)
    log_trans = _log(model.trans)
    log_exit = _log(model.exit)
    log_eps = _log(model.advance)
    log_hold = _log(1.0 - model.advance)
    logp_m, logp_j = _emission_tables(model, fi, fj)

    lat = np.full((T, S + 1, n), -np.inf)
    lat[0, 0, :] = log_entry + log_hold + logp_m[0]
    lat[0, 1, :] = log_entry + log_eps + logp_j[0, 0]
    for t in range(1, T):
        prev = lat[t - 1]
        tin = logsumexp(prev[:, :, None] + log_trans[None, :, :], axis=1)
        hold = tin + (log_hold + logp_m[t])[None, :]
        adv = np.full_like(hold, -np.inf)
        smax = min(t + 1, S)
        if smax >= 1:
            adv[1 : smax + 1] = tin[0:smax] + log_eps[None, :] + logp_j[0:smax, t]
        lat[t] = np.logaddexp(hold, adv)
    s_lo = max(0, S - terminal_slack)
    loglik = logsumexp(lat[T - 1, s_lo : S + 1, :] + log_exit[None, :])
    return lat, float(loglik)


def pair_hmm_loglik(model: ActivityModel, fi: np.ndarray, fj: np.ndarray) -> float:
    """Synchronous pair likelihood: standard forward over joint emissions."""
    fi = np.atleast_2d(np.asarray(fi, dtype=float))
    fj = np.atleast_2d(np.asarray(fj, dtype=float))
    if fi.shape != fj.shape:
        raise ValueError("synchronous scoring needs equal-length streams")
    if model.joint is None:
        raise ValueError("model lacks joint emissions")
    obs = np.concatenate([fi, fj], axis=1)
    return _hmm_loglik(model, np.stack([g.log_density(obs) for g in model.joint], axis=1))


def window_log_mass(model: ActivityModel, fi: np.ndarray, fj: np.ndarray, dt: int) -> float:
    """Log lattice mass near the diagonal at the window end (one activity)."""
    fi = np.atleast_2d(np.asarray(fi, dtype=float))
    fj = np.atleast_2d(np.asarray(fj, dtype=float))
    lat, _ = ahmm_forward(model, fi, fj)
    S, T = fi.shape[0], fj.shape[0]
    lo = max(1, T - dt)
    return float(logsumexp(lat[-1, lo : S + 1, :]))


def correlation(
    bank: ActivityModelBank,
    tracks: TrackSet,
    subject,
    target,
    t: int,
    window: int | None = None,
    dt: int | None = None,
) -> np.ndarray | None:
    """Correlation profile of ``target`` w.r.t. ``subject`` at frame ``t``.

    The profile is one value per activity in ``bank.labels()`` order, and
    the values sum to one.  The subject's stream feeds the advance branch
    (first stream).  Returns None when no usable observation window of
    length >= 2 ends at ``t``.
    """
    window = window if window is not None else bank.window
    dt = dt if dt is not None else bank.dt
    ea, eb = feats.as_entity(subject), feats.as_entity(target)
    pairw = feats.pair_feature_windows(tracks, ea, eb, t, window)
    if pairw is None:
        return None
    fa, fb = pairw
    masses = np.array([window_log_mass(bank.models[label], fa, fb, dt) for label in bank.labels()])
    return np.exp(masses - logsumexp(masses))


def member_log_scores(engine, group, label: str, t: int) -> dict[int, float]:
    """``grouprep.member_log_scores`` one member at a time.

    Each member's frame features come from its own ``pair_observation``
    against the rest of the group, and its entry-weighted density takes one
    ``GaussianMixture.log_density`` call per state, on that one row.
    """
    members = feats.as_entity(group)
    if len(members) < 2:
        return {m: 0.0 for m in members}
    model = engine.bank.models[label]
    col = engine.column[label]
    scores = {}
    for i in members:
        rest = tuple(m for m in members if m != i)
        obs = feats.pair_observation(engine.tracks, (i,), rest, t)
        per_state = np.array([g.log_density(obs) for g in model.marginal])
        with np.errstate(divide="ignore"):
            density = float(logsumexp(np.log(model.entry) + per_state))
        co_sum = 0.0
        for j in rest:
            p = engine.profile((j,), (i,), t)
            if p is not None:
                co_sum += p[col]
        scores[i] = density + co_sum
    return scores


def parse_tracks_per_line(text: str, strict: bool = True) -> tuple[list[MbbSample], list[str]]:
    """The kept samples in line order and the warnings of ``trackio.parse_tracks``."""
    samples: list[MbbSample] = []
    seen: set[tuple[int, int]] = set()
    warnings: list[str] = []

    def fail(msg: str, lineno: int) -> None:
        if strict:
            raise ParseError(msg, line=lineno)
        warnings.append(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
        if not -(2**63) <= person < 2**63:
            fail(f"person {person} outside the int64 range", lineno)
            continue
        if not (abs(x) <= COORD_MAX and abs(y) <= COORD_MAX and SIZE_MIN <= w <= SIZE_MAX and SIZE_MIN <= h <= SIZE_MAX):
            fail(f"sample {(x, y, w, h)} of person {person} at frame {frame} outside {_BOUNDS}", lineno)
            continue
        if (frame, person) in seen:
            fail(f"duplicate sample for person {person} at frame {frame}", lineno)
            continue
        seen.add((frame, person))
        samples.append(MbbSample(frame, person, x, y, w, h))
    return samples, warnings
