"""Independent brute-force oracles for the features and the sequence-model recursions.

These deliberately avoid the library's code paths: feature rows are scalar
re-derivations from raw box samples, and likelihoods are computed by
exhaustive enumeration over monotone alignments and state paths, feasible
for the short sequences used in tests.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
