"""Asynchronous pair-sequence models and the activity correlation metric.

The central object is a per-activity hidden-state model over two feature
streams whose alignment is itself hidden: at every step of the longer stream
the model either *advances* (consuming the next observation of the shorter
stream jointly with the current one, with per-state probability eps) or
*holds* (consuming only the current observation of the longer stream).
Summing the forward lattice near the diagonal and normalising across all
activity models yields the asymmetric correlation metric used for clustering
and for relations between groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import features as feats
from .gmm import VAR_FLOOR, GaussianMixture, fit_em, logsumexp
from .taxonomy import SINGLE, Taxonomy, default_taxonomy
from .trackio import AnnotationSet, TrackSet

EPS_MIN = 1e-3


class DataError(ValueError):
    """Training or evaluation data does not support the requested operation."""


def check_window(window: int, dt: int) -> None:
    """Reject a correlation window whose near-diagonal read-out is empty.

    Windows need at least 2 frames, and the alignment slack ``dt`` must
    satisfy ``0 <= dt < window``.
    """
    if window < 2:
        raise ValueError(f"window must be at least 2 frames (got {window})")
    if not 0 <= dt < window:
        raise ValueError(f"alignment slack must satisfy 0 <= dt < window (got dt={dt}, window={window})")


def check_thresholds(**thresholds: float) -> None:
    """Reject a clustering or representative threshold outside [0, 1]."""
    for name, v in thresholds.items():
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"threshold {name} must lie in [0, 1]")


def _log(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(a)


@dataclass(frozen=True)
class ActivityModel:
    """Parameters of one activity's sequence model.

    ``entry``/``trans``/``exit`` describe the emitting-state chain; each row
    of ``trans`` plus the matching ``exit`` entry sums to one.  ``advance``
    holds the per-state probability of consuming the shorter stream (None
    for synchronous-only models such as group-feature models).  ``marginal``
    are per-state mixtures over single observations, ``joint`` (optional)
    per-state mixtures over concatenated observation pairs.
    """

    label: str
    kind: str
    entry: np.ndarray
    trans: np.ndarray
    exit: np.ndarray
    advance: np.ndarray | None
    marginal: tuple[GaussianMixture, ...]
    joint: tuple[GaussianMixture, ...] | None = None
    mixture_fallback: bool = False

    def __post_init__(self) -> None:
        entry = np.asarray(self.entry, dtype=float)
        trans = np.asarray(self.trans, dtype=float)
        exit_ = np.asarray(self.exit, dtype=float)
        n = entry.shape[0]
        if trans.shape != (n, n) or exit_.shape != (n,):
            raise ValueError("inconsistent state-chain shapes")
        if abs(entry.sum() - 1.0) > 1e-12 or np.any(entry < 0):
            raise ValueError("entry distribution must sum to 1")
        rows = trans.sum(axis=1) + exit_
        if np.any(np.abs(rows - 1.0) > 1e-12) or np.any(trans < 0) or np.any(exit_ < 0):
            raise ValueError("transition rows plus exit must sum to 1")
        adv = self.advance
        if adv is not None:
            adv = np.asarray(adv, dtype=float)
            if adv.shape != (n,) or np.any(adv < 0) or np.any(adv > 1):
                raise ValueError("advance probabilities must lie in [0, 1]")
        if len(self.marginal) != n:
            raise ValueError("need one marginal mixture per state")
        dims = {g.dim for g in self.marginal}
        if len(dims) != 1:
            raise ValueError("marginal mixtures disagree on dimension")
        if self.joint is not None:
            if len(self.joint) != n:
                raise ValueError("need one joint mixture per state")
            jdims = {g.dim for g in self.joint}
            if jdims != {2 * next(iter(dims))}:
                raise ValueError("joint mixtures must cover concatenated observation pairs")
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "exit", exit_)
        object.__setattr__(self, "advance", adv)
        object.__setattr__(self, "marginal", tuple(self.marginal))
        if self.joint is not None:
            object.__setattr__(self, "joint", tuple(self.joint))

    @property
    def n_states(self) -> int:
        return self.entry.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.marginal[0].dim

    def to_payload(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "entry": self.entry.tolist(),
            "trans": self.trans.tolist(),
            "exit": self.exit.tolist(),
            "advance": None if self.advance is None else self.advance.tolist(),
            "marginal": [g.to_payload() for g in self.marginal],
            "joint": None if self.joint is None else [g.to_payload() for g in self.joint],
            "mixture_fallback": self.mixture_fallback,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ActivityModel":
        return cls(
            label=payload["label"],
            kind=payload["kind"],
            entry=np.asarray(payload["entry"], dtype=float),
            trans=np.asarray(payload["trans"], dtype=float),
            exit=np.asarray(payload["exit"], dtype=float),
            advance=None if payload["advance"] is None else np.asarray(payload["advance"], dtype=float),
            marginal=tuple(GaussianMixture.from_payload(g) for g in payload["marginal"]),
            joint=None if payload["joint"] is None else tuple(
                GaussianMixture.from_payload(g) for g in payload["joint"]
            ),
            mixture_fallback=bool(payload.get("mixture_fallback", False)),
        )


@dataclass(frozen=True)
class ActivityModelBank:
    """All trained activity models plus the taxonomy and runtime defaults."""

    models: dict[str, ActivityModel]
    taxonomy: Taxonomy = field(default_factory=default_taxonomy)
    group_models: dict[str, ActivityModel] = field(default_factory=dict)
    window: int = 25
    dt: int = 5
    tc: float = 0.1
    to: float = 0.95
    tr: float = 0.3

    def __post_init__(self) -> None:
        check_window(self.window, self.dt)
        check_thresholds(tc=self.tc, to=self.to, tr=self.tr)
        missing = [l for l in self.taxonomy.modelable_labels() if l not in self.models]
        if missing:
            raise ValueError(f"bank lacks models for activities: {missing}")

    def labels(self) -> list[str]:
        return sorted(self.models)


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


def _fold_logaddexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along a short ``axis`` as a left fold of ``np.logaddexp``.

    One ufunc per term instead of the max/exp/sum/log of :func:`logsumexp`,
    and all -inf terms give -inf without a warning.
    """
    terms = np.moveaxis(x, axis, 0)
    acc = terms[0]
    for term in terms[1:]:
        acc = np.logaddexp(acc, term)
    return acc


def _band_forward(log_entry, log_trans, ae: np.ndarray, hm: np.ndarray):
    """Forward sweep over the hold-count band of the alignment lattice.

    Cell ``h = (t+1) - s`` counts the holds so far: an advance keeps it and a
    hold raises it, so a read-out that needs ``h < D`` keeps ``D`` cells per
    step.  ``ae`` (T, ..., D, n) is the log weight of advancing from cell
    ``h`` at step ``t`` (-inf where nothing is left to consume), ``hm``
    (T, ..., n) that of holding; ``log_entry`` and ``log_trans`` broadcast
    over the batch axes.  Cells ``h > t`` are never entered, so their
    ``ae`` values never reach the mass.  Returns the log mass entering and
    leaving each step, shaped like ``ae``.  With ``D = 1`` this is the
    plain HMM forward.
    """
    tin = np.full(ae.shape, -np.inf)
    la = np.full(ae.shape, -np.inf)
    tin[0, ..., 0, :] = log_entry
    for t in range(ae.shape[0]):
        if t:
            tin[t] = _fold_logaddexp(la[t - 1][..., None] + log_trans[..., None, :, :], axis=-2)
        la[t] = tin[t] + ae[t]
        la[t, ..., 1:, :] = np.logaddexp(la[t, ..., 1:, :], tin[t, ..., :-1, :] + hm[t][..., None, :])
    return tin, la


def _band_posteriors(model: ActivityModel, ae: np.ndarray, hm: np.ndarray, stats: _EmStats):
    """Forward-backward over the band of B sequences of one shape.

    ``ae`` (T, B, D, n) and ``hm`` (T, B, n) are as in :func:`_band_forward`.
    Adds the expected chain counts to ``stats`` and returns the
    log-likelihoods (B,), the posteriors (T, B, D, n) of advancing from each
    cell and those (T, B, n) of holding at each step.
    """
    log_trans, log_exit = _log(model.trans), _log(model.exit)
    tin, la = _band_forward(_log(model.entry), log_trans, ae, hm)
    T, B = ae.shape[:2]
    # beta: mass of steps t..T-1 from a cell entered at t; lb: of the steps after t
    beta = np.full(ae.shape, -np.inf)
    lb = np.full(ae.shape, -np.inf)
    lb[T - 1] = log_exit
    for t in range(T - 1, -1, -1):
        beta[t] = ae[t] + lb[t]
        beta[t, :, :-1] = np.logaddexp(beta[t, :, :-1], hm[t, :, None] + lb[t, :, 1:])
        if t:
            lb[t - 1] = _fold_logaddexp(log_trans + beta[t, :, :, None, :], axis=3)
    total = logsumexp((la[T - 1] + log_exit).reshape(B, -1), axis=1)
    if not np.all(np.isfinite(total)):
        raise DataError("segment has zero likelihood under the current model")
    tot = total[:, None, None]
    stats.entry += np.exp(tin[0, :, 0] + beta[0, :, 0] - total[:, None]).sum(axis=0)
    stats.exit += np.exp(la[T - 1] + log_exit - tot).sum(axis=(0, 1))
    xi = la[:-1, :, :, :, None] + log_trans + beta[1:, :, :, None, :]
    stats.trans += np.exp(xi - tot[..., None]).sum(axis=(0, 1, 2))
    adv = np.exp(tin + ae + lb - tot)
    hold = np.exp(tin[:, :, :-1] + hm[:, :, None] + lb[:, :, 1:] - tot).sum(axis=2)
    return total, adv, hold


def _hmm_loglik(model: ActivityModel, logb: np.ndarray) -> float:
    """Forward over a (T, n) emission table: the band with ``D = 1``, never holding."""
    _, la = _band_forward(
        _log(model.entry), _log(model.trans), logb[:, None, :], np.full(logb.shape, -np.inf)
    )
    return float(logsumexp(la[-1, 0] + _log(model.exit)))


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


def hmm_group_likelihood(model: ActivityModel, fa: np.ndarray) -> float:
    """Synchronous forward over a single observation stream (marginal emissions)."""
    fa = np.atleast_2d(np.asarray(fa, dtype=float))
    if fa.shape[0] < 1:
        raise ValueError("sequence must be non-empty")
    if fa.shape[1] != model.obs_dim:
        raise ValueError("observation dimension does not match emission models")
    return _hmm_loglik(model, np.stack([g.log_density(fa) for g in model.marginal], axis=1))


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


@dataclass
class TrainConfig:
    """Knobs for sequence-model training; deterministic given ``seed``.

    ``terminal_slack`` widens the set of admissible final alignments during
    training, matching the near-diagonal mass the correlation metric reads;
    without it, equal-length stream pairs admit only all-advance paths and
    the advance probabilities degenerate to one.
    """

    states: int = 2
    mixtures: int = 2
    seed: int = 0
    max_iters: int = 40
    tol: float = 1e-4
    var_floor: float = VAR_FLOOR
    rel_var_floor: float = 0.01
    eps_min: float = EPS_MIN
    fix_advance: float | None = None
    chunk: int | None = None
    max_segments: int | None = 64
    terminal_slack: int = 0


def _dim_floor(pooled: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Per-dimension variance floor: a fraction of the pooled data variance."""
    spread = pooled.var(axis=0) if pooled.shape[0] else np.zeros(pooled.shape[1])
    return np.maximum(config.var_floor, config.rel_var_floor * spread)


def _init_mixtures(pools: list[np.ndarray], k: int, seed: int, var_floor):
    """Per-state mixtures from temporal pools; falls back to one component."""
    mixes = []
    fallback = False
    for i, pool in enumerate(pools):
        kk = k
        if pool.shape[0] < 2 * k:
            kk = 1
            fallback = fallback or k > 1
        if pool.shape[0] == 0:
            raise DataError("no observations available to initialise emissions")
        mixes.append(fit_em(pool, kk, seed=seed * 31 + i, var_floor=var_floor))
    return tuple(mixes), fallback


def _temporal_pools(rows_per_segment: list[np.ndarray], n_states: int) -> list[np.ndarray]:
    pools: list[list[np.ndarray]] = [[] for _ in range(n_states)]
    for rows in rows_per_segment:
        m = rows.shape[0]
        if m == 0:
            continue
        bounds = np.linspace(0, m, n_states + 1).astype(int)
        for k in range(n_states):
            chunk = rows[bounds[k] : bounds[k + 1]]
            if chunk.shape[0] == 0:
                chunk = rows
            pools[k].append(chunk)
    return [np.concatenate(p, axis=0) if p else np.empty((0, rows_per_segment[0].shape[1])) for p in pools]


def _fit_weighted_mixture(
    old: GaussianMixture, x: np.ndarray, w: np.ndarray, var_floor: float
) -> GaussianMixture:
    """One weighted maximisation step for a mixture given point weights."""
    total = float(w.sum())
    if total < 1e-10:
        return old
    comp = old.component_log_density(x) + np.log(old.weights)[None, :]
    comp -= logsumexp(comp, axis=1)[:, None]
    r = np.exp(comp) * w[:, None]
    mass = r.sum(axis=0)
    if np.any(mass < 1e-10):
        return old
    weights = mass / mass.sum()
    means = (r.T @ x) / mass[:, None]
    sq = (r.T @ (x * x)) / mass[:, None]
    variances = np.maximum(sq - means * means, var_floor)
    return GaussianMixture(weights, means, variances)


def _subsample(items: list, limit: int | None) -> list:
    """At most ``limit`` of ``items``, evenly spaced and in order."""
    if limit is None or len(items) <= limit:
        return items
    idx = np.linspace(0, len(items) - 1, limit).astype(int)
    return [items[i] for i in sorted(set(idx.tolist()))]


def _initial_chain(n: int, mean_len: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform entry, exit ``1 / mean_len`` (at most 0.5), diagonal-heavy transitions."""
    exit0 = min(0.5, 1.0 / mean_len)
    if n == 1:
        trans = np.array([[1.0 - exit0]])
    else:
        trans = np.full((n, n), 0.4 / (n - 1))
        np.fill_diagonal(trans, 0.6)
        trans *= 1.0 - exit0
    return np.full(n, 1.0 / n), trans, np.full(n, exit0)


def _run_em(model: ActivityModel, batches: list[tuple], accumulate, config: TrainConfig,
            marg_floor, joint_floor=None) -> tuple[ActivityModel, list[float]]:
    """EM from ``model`` until the log-likelihood gain falls below ``config.tol``;
    ``accumulate(model, *batch, stats)`` is the E-step of one batch."""
    history: list[float] = []
    prev_ll = -np.inf
    for _ in range(config.max_iters):
        stats = _EmStats(model.n_states, config, marg_floor, joint_floor)
        ll = 0.0
        for batch in batches:
            ll += float(accumulate(model, *batch, stats).sum())
        history.append(ll)
        model = stats.m_step(model)
        if prev_ll > -np.inf and ll - prev_ll < config.tol * max(1.0, abs(prev_ll)):
            break
        prev_ll = ll
    return model, history


def train_activity_model(
    segments: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig | None = None,
    label: str = "activity",
    kind: str = "symmetric",
    return_history: bool = False,
):
    """Fit an activity model to ordered stream pairs by expectation-maximisation.

    Each segment is ``(fi, fj)`` with ``len(fi) <= len(fj)``.  The E-step runs
    exact forward-backward over the alignment-state lattice, one batched sweep
    per segment shape over the cells that can reach the read-out; the M-step
    updates entry/transition/exit rows, per-state advance probabilities
    (unless ``fix_advance`` pins them), and both emission mixture families.
    The training log-likelihood never decreases.
    """
    config = config or TrainConfig()
    if not segments:
        raise DataError("no training segments")
    segs = []
    for fi, fj in segments:
        fi = np.atleast_2d(np.asarray(fi, dtype=float))
        fj = np.atleast_2d(np.asarray(fj, dtype=float))
        if fi.shape[0] > fj.shape[0]:
            raise DataError("segment has first stream longer than second")
        segs.append((fi, fj))
    segs = _subsample(segs, config.max_segments)
    n = config.states

    joint_pools = _temporal_pools([np.concatenate([fi, fj[: len(fi)]], axis=1) for fi, fj in segs], n)
    marg_pools = _temporal_pools([fj for _, fj in segs], n)
    # per-dimension floors keyed to the pooled spread keep collapsed
    # components from spiking the density scale
    marg_floor = _dim_floor(np.concatenate([fj for _, fj in segs], axis=0), config)
    joint_floor = _dim_floor(np.concatenate(joint_pools, axis=0), config)
    joint, fb1 = _init_mixtures(joint_pools, config.mixtures, config.seed, joint_floor)
    marginal, fb2 = _init_mixtures(marg_pools, config.mixtures, config.seed + 7, marg_floor)

    entry, trans, exit_ = _initial_chain(n, float(np.mean([fj.shape[0] for _, fj in segs])))
    advance = np.full(n, 0.7 if config.fix_advance is None else float(config.fix_advance))
    model = ActivityModel(label, kind, entry, trans, exit_, advance, marginal, joint, fb1 or fb2)
    slack = 0 if config.fix_advance is not None else config.terminal_slack
    model, history = _run_em(
        model, _stack_by_shape(segs), partial(_accumulate_batch, terminal_slack=slack),
        config, marg_floor, joint_floor,
    )
    return (model, history) if return_history else model


class _EmStats:
    """Accumulated expected counts for one EM iteration."""

    def __init__(self, n: int, config: TrainConfig, marg_floor=None, joint_floor=None):
        self.config = config
        self.marg_floor = config.var_floor if marg_floor is None else marg_floor
        self.joint_floor = config.var_floor if joint_floor is None else joint_floor
        self.entry = np.zeros(n)
        self.trans = np.zeros((n, n))
        self.exit = np.zeros(n)
        self.joint_x: list[np.ndarray] = []
        self.joint_w: list[np.ndarray] = []  # (P, n) weights per state
        self.marg_x: list[np.ndarray] = []
        self.marg_w: list[np.ndarray] = []

    def m_step(self, model: ActivityModel) -> ActivityModel:
        """Re-estimated model.  A synchronous model (no ``advance``) or a
        pinned ``fix_advance`` keeps its advance probabilities."""
        cfg = self.config
        n = model.n_states
        entry = self.entry / self.entry.sum() if self.entry.sum() > 0 else model.entry
        rows = self.trans.sum(axis=1) + self.exit
        trans = model.trans.copy()
        exit_ = model.exit.copy()
        for k in range(n):
            if rows[k] > 1e-10:
                trans[k] = self.trans[k] / rows[k]
                exit_[k] = self.exit[k] / rows[k]
        jw = np.concatenate(self.joint_w or [np.zeros((0, n))])
        mw = np.concatenate(self.marg_w or [np.zeros((0, n))])
        advance = model.advance
        if advance is not None and cfg.fix_advance is None:
            # cells outside the band carry no advance posterior, so the weight
            # columns sum to the expected advance and hold counts
            adv = jw.sum(axis=0)
            tot = adv + mw.sum(axis=0)
            advance = advance.copy()
            mask = tot > 1e-10
            advance[mask] = adv[mask] / tot[mask]
            advance = np.clip(advance, cfg.eps_min, 1.0 - cfg.eps_min)
        joint = model.joint
        if self.joint_x:
            jx = np.concatenate(self.joint_x, axis=0)
            joint = tuple(
                _fit_weighted_mixture(model.joint[k], jx, jw[:, k], self.joint_floor) for k in range(n)
            )
        marginal = model.marginal
        if self.marg_x:
            mx = np.concatenate(self.marg_x, axis=0)
            marginal = tuple(
                _fit_weighted_mixture(model.marginal[k], mx, mw[:, k], self.marg_floor) for k in range(n)
            )
        return ActivityModel(
            model.label, model.kind, entry, trans, exit_, advance, marginal, joint,
            model.mixture_fallback,
        )


def _stack_by_shape(items: list[tuple[np.ndarray, ...]]) -> list[tuple[np.ndarray, ...]]:
    """Tuples of equal-shape arrays stacked on a new batch axis, one per shape."""
    groups: dict[tuple, list] = {}
    for item in items:
        groups.setdefault(tuple(a.shape for a in item), []).append(item)
    return [tuple(np.stack(col) for col in zip(*group)) for group in groups.values()]


def _accumulate_batch(
    model: ActivityModel, fi: np.ndarray, fj: np.ndarray, stats: _EmStats, terminal_slack: int
) -> np.ndarray:
    """Exact E-step over B segments of one shape; returns their log-likelihoods.

    ``fi`` is (B, S, d) and ``fj`` (B, T, d).  The read-out keeps
    ``s >= S - terminal_slack``, so only the band cells ``h < D`` of
    :func:`_band_forward` can carry posterior mass.
    """
    B, S, d = fi.shape
    T = fj.shape[1]
    n = model.n_states
    D = min(T - S + terminal_slack, T) + 1
    fi, fj = fi.swapaxes(0, 1), fj.swapaxes(0, 1)
    x = fj.reshape(T * B, d)
    hm = _log(1.0 - model.advance) + np.stack(
        [g.log_density(x) for g in model.marginal], axis=1
    ).reshape(T, B, n)
    # advancing from band cell (t, h) consumes fi[t-h]
    src = np.arange(T)[:, None] - np.arange(D)[None, :]
    tt, hh = np.nonzero((src >= 0) & (src < S))
    pairs = np.concatenate([fi[tt - hh], fj[tt]], axis=2).reshape(-1, 2 * d)
    ae = np.full((T, B, D, n), -np.inf)
    ae[tt, :, hh] = _log(model.advance) + np.stack(
        [g.log_density(pairs) for g in model.joint], axis=1
    ).reshape(-1, B, n)
    total, adv, hold = _band_posteriors(model, ae, hm, stats)
    # emission statistics: joint on advance cells in the band, marginal on hold mass
    stats.joint_x.append(pairs)
    stats.joint_w.append(adv[tt, :, hh].reshape(-1, n))
    stats.marg_x.append(x)
    stats.marg_w.append(hold.reshape(T * B, n))
    return total


def _accumulate_sequences(model: ActivityModel, seqs: np.ndarray, stats: _EmStats) -> np.ndarray:
    """Exact E-step over B single-stream sequences of one length, (B, T, d).

    The synchronous model is the band with one cell per step, which never
    holds, so its advance posteriors are the state occupancies.
    """
    B, T, d = seqs.shape
    n = model.n_states
    x = seqs.swapaxes(0, 1).reshape(T * B, d)
    logb = np.stack([g.log_density(x) for g in model.marginal], axis=1).reshape(T, B, 1, n)
    total, occupancy, _ = _band_posteriors(model, logb, np.full((T, B, n), -np.inf), stats)
    stats.marg_x.append(x)
    stats.marg_w.append(occupancy.reshape(T * B, n))
    return total


def train_hmm_model(
    sequences: list[np.ndarray],
    config: TrainConfig | None = None,
    label: str = "activity",
    kind: str = "symmetric",
    return_history: bool = False,
):
    """Fit a synchronous single-stream model (marginal emissions only)."""
    config = config or TrainConfig()
    if not sequences:
        raise DataError("no training sequences")
    seqs = _subsample([np.atleast_2d(np.asarray(s, dtype=float)) for s in sequences], config.max_segments)
    n = config.states
    pools = _temporal_pools(seqs, n)
    floor = _dim_floor(np.concatenate(seqs, axis=0), config)
    marginal, fallback = _init_mixtures(pools, config.mixtures, config.seed + 3, floor)
    entry, trans, exit_ = _initial_chain(n, float(np.mean([s.shape[0] for s in seqs])))
    model = ActivityModel(label, kind, entry, trans, exit_, None, marginal, None, fallback)
    model, history = _run_em(
        model, _stack_by_shape([(s,) for s in seqs]), _accumulate_sequences, config, floor
    )
    return (model, history) if return_history else model


def _usable_chunks(usable: np.ndarray, chunk: int, min_len: int = 4) -> list[np.ndarray]:
    """Indices of the usable frames, split into runs at gaps and into pieces.

    ``usable`` is an :class:`~groupact.features.EntityTrack` mask (index 0
    is never usable).  Pieces hold at most ``chunk`` frames; pieces shorter
    than ``min_len`` are dropped.
    """
    edges = np.flatnonzero(np.diff(usable, append=False))
    out = []
    for a, b in zip(edges[::2] + 1, edges[1::2] + 1):
        for c0 in range(a, b, chunk):
            idx = np.arange(c0, min(c0 + chunk, b))
            if idx.size >= min_len:
                out.append(idx)
    return out


def _stream_chunks(
    tracks: TrackSet, ea, eb, start: int, end: int, chunk: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ordered feature-stream pairs over an interval, split at gaps and chunked."""
    lo = max(start, 1)
    ta = feats.EntityTrack(tracks, feats.as_entity(ea), lo - 1, end)
    tb = feats.EntityTrack(tracks, feats.as_entity(eb), lo - 1, end)
    return [feats._pair_rows(ta, tb, idx) for idx in _usable_chunks(ta.usable & tb.usable, chunk)]


def _group_chunks(
    tracks: TrackSet, members, start: int, end: int, chunk: int
) -> list[np.ndarray]:
    """Group-feature sequences over an interval, split at gaps and chunked."""
    tms = feats.member_tracks(tracks, members, max(start, 1) - 1, end)
    usable = np.logical_and.reduce([tm.usable for tm in tms])
    return [feats._group_rows(tms, idx) for idx in _usable_chunks(usable, chunk)]


def assemble_training_data(
    tracks: TrackSet, annotations: AnnotationSet, chunk: int
) -> tuple[dict[str, list], dict[str, list]]:
    """Ordered pair segments per activity, plus group-feature sequences.

    Symmetric records contribute every ordered member pair (both directions);
    inter-group records contribute cross pairs with the faster group's member
    as the subject stream (both directions again when the label is symmetric,
    e.g. mutual non-interaction).
    """
    tax = annotations.taxonomy
    pair_segments: dict[str, list] = {}
    group_sequences: dict[str, list] = {}
    for rec in annotations.sym_records():
        if rec.label != SINGLE and len(rec.members) >= 2:
            for a in rec.members:
                for b in rec.members:
                    if a == b:
                        continue
                    segs = _stream_chunks(tracks, a, b, rec.start, rec.end, chunk)
                    pair_segments.setdefault(rec.label, []).extend(segs)
        if tax.is_grouping(rec.label):
            group_sequences.setdefault(rec.label, []).extend(
                _group_chunks(tracks, rec.members, rec.start, rec.end, chunk)
            )
    for rec in annotations.asym_records():
        ga = annotations.group_members(rec.groups[0], rec.start)
        gb = annotations.group_members(rec.groups[1], rec.start)
        if ga is None or gb is None:
            continue
        span = rec.end - rec.start + 1
        sa = feats.entity_average_speed(tracks, ga, rec.end, span)
        sb = feats.entity_average_speed(tracks, gb, rec.end, span)
        slower, faster = (ga, gb) if sa <= sb else (gb, ga)
        for i in faster:
            for j in slower:
                segs = _stream_chunks(tracks, i, j, rec.start, rec.end, chunk)
                pair_segments.setdefault(rec.label, []).extend(segs)
                if tax.is_symmetric(rec.label):
                    segs = _stream_chunks(tracks, j, i, rec.start, rec.end, chunk)
                    pair_segments.setdefault(rec.label, []).extend(segs)
    return pair_segments, group_sequences


def train_bank(
    tracks: TrackSet,
    annotations: AnnotationSet,
    config: TrainConfig | None = None,
    window: int = 25,
    dt: int = 5,
    tc: float = 0.1,
    to: float = 0.95,
    tr: float = 0.3,
) -> ActivityModelBank:
    """Train one model per modelable activity plus group-feature models."""
    check_window(window, dt)
    check_thresholds(tc=tc, to=to, tr=tr)
    config = config or TrainConfig()
    tax = annotations.taxonomy
    chunk = config.chunk or window
    slack = config.terminal_slack or dt
    pair_segments, group_sequences = assemble_training_data(tracks, annotations, chunk)
    models = {}
    for idx, label in enumerate(tax.modelable_labels()):
        segs = pair_segments.get(label, [])
        if not segs:
            raise DataError(f"no training data for activity {label!r}")
        cfg = replace(config, seed=config.seed + idx, terminal_slack=slack)
        models[label] = train_activity_model(segs, cfg, label=label, kind=tax.level(label))
    group_models = {}
    for idx, label in enumerate(tax.grouping_labels()):
        seqs = group_sequences.get(label, [])
        if seqs:
            cfg = replace(config, seed=config.seed + 1000 + idx)
            group_models[label] = train_hmm_model(seqs, cfg, label=label, kind=tax.level(label))
    return ActivityModelBank(
        models=models, taxonomy=tax, group_models=group_models,
        window=window, dt=dt, tc=tc, to=to, tr=tr,
    )


def bank_to_payload(bank: ActivityModelBank) -> dict:
    return {
        "taxonomy": {
            "levels": dict(sorted(bank.taxonomy.levels.items())),
            "non_grouping": sorted(bank.taxonomy.non_grouping),
        },
        "config": {
            "window": bank.window, "dt": bank.dt,
            "tc": bank.tc, "to": bank.to, "tr": bank.tr,
        },
        "models": {label: bank.models[label].to_payload() for label in sorted(bank.models)},
        "group_models": {
            label: bank.group_models[label].to_payload() for label in sorted(bank.group_models)
        },
    }


def bank_from_payload(payload: dict) -> ActivityModelBank:
    tax = Taxonomy(
        levels=dict(payload["taxonomy"]["levels"]),
        non_grouping=frozenset(payload["taxonomy"]["non_grouping"]),
    )
    cfg = payload["config"]
    return ActivityModelBank(
        models={l: ActivityModel.from_payload(p) for l, p in payload["models"].items()},
        taxonomy=tax,
        group_models={l: ActivityModel.from_payload(p) for l, p in payload["group_models"].items()},
        window=int(cfg["window"]), dt=int(cfg["dt"]),
        tc=float(cfg["tc"]), to=float(cfg["to"]), tr=float(cfg["tr"]),
    )


class _BatchGmm:
    """Flattened per-(activity, state) mixtures for batched density lookups."""

    def __init__(self, mixtures: list[list[GaussianMixture]], dim: int):
        self.n_items = len(mixtures)
        self.n_states = len(mixtures[0]) if mixtures else 0
        m_max = max((g.n_components for row in mixtures for g in row), default=1)
        P = self.n_items * self.n_states
        self.logw = np.full((P, m_max), -np.inf)
        mu = np.zeros((P, m_max, dim))
        var = np.ones((P, m_max, dim))
        for a, row in enumerate(mixtures):
            for k, g in enumerate(row):
                p = a * self.n_states + k
                m = g.n_components
                self.logw[p, :m] = np.log(g.weights)
                mu[p, :m] = g.means
                var[p, :m] = g.variances
        self.inv_var = (1.0 / var).reshape(P * m_max, dim)
        self.mu_inv_var = (mu / var).reshape(P * m_max, dim)
        self.const = (np.sum(np.log(var) + mu * mu / var, axis=2) + dim * np.log(2 * np.pi)).reshape(
            P * m_max
        )
        self.m_max = m_max

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """(N, n_items, n_states) log densities for data x of shape (N, d)."""
        quad = x * x @ self.inv_var.T - 2.0 * (x @ self.mu_inv_var.T) + self.const[None, :]
        comp = -0.5 * quad
        comp = comp.reshape(x.shape[0], self.n_items, self.n_states, self.m_max)
        comp = comp + self.logw[None, :, :].reshape(1, self.n_items, self.n_states, self.m_max)
        return _fold_logaddexp(comp, axis=3)


class _FrameRows:
    """Emission rows of one frame ``u``, one row per ordered entity pair.

    ``marg`` (rows, A, n) holds the marginal rows with the hold weight added,
    ``joint`` (rows, A, D, n) the band-joint rows of cells ``(u, h)``, whose
    source frame is ``u - h``, with the advance weight added.  Cells whose
    source frame precedes the window that computed the row are -inf.
    """

    def __init__(self, A: int, D: int, n: int):
        self.index: dict[tuple, int] = {}
        # storage grows by a quarter at a time, since after a frame's first
        # call the rows of a few new entities at most arrive per call;
        # slots past len(index) are unused
        self.marg = np.empty((1, A, n))
        self.joint = np.empty((1, A, D, n))

    def lookup(self, keys: list[tuple]) -> np.ndarray:
        """Row of each key, -1 where it has none."""
        get = self.index.get
        return np.array([get(k, -1) for k in keys], dtype=np.intp)

    def store(self, keys: list[tuple], marg, joint) -> np.ndarray:
        """Write the rows of ``keys``, appending new keys; returns their rows."""
        index = self.index
        rows = np.array([index.setdefault(k, len(index)) for k in keys], dtype=np.intp)
        if len(index) > len(self.marg):
            cap = max(len(index), len(self.marg) * 5 // 4)
            self.marg, self.joint = (
                np.concatenate([a, np.empty((cap - len(a),) + a.shape[1:])])
                for a in (self.marg, self.joint)
            )
        self.marg[rows] = marg
        self.joint[rows] = joint
        return rows


class CorrelationEngine:
    """Batched correlation evaluation for a fixed bank over one track set.

    Computes the same profiles as :func:`correlation` but stacks all
    activities (and many entity pairs) into single vectorised lattice sweeps,
    which is what makes per-frame clustering affordable.  A profile is a row
    of values in ``labels`` order; ``column`` maps a label to its index.
    Emission rows depend only on the entity pair and the frame, so the
    engine keeps those of the last ``window`` frames and a new frame
    computes only its own.
    """

    def __init__(self, bank: ActivityModelBank, tracks: TrackSet,
                 window: int | None = None, dt: int | None = None):
        self.bank = bank
        self.tracks = tracks
        self.window = window if window is not None else bank.window
        self.dt = dt if dt is not None else bank.dt
        check_window(self.window, self.dt)
        self.labels = bank.labels()
        self.column = {label: a for a, label in enumerate(self.labels)}
        models = [bank.models[l] for l in self.labels]
        self.n_states = models[0].n_states
        if any(m.n_states != self.n_states for m in models):
            raise ValueError("engine requires a uniform state count across activities")
        self.obs_dim = models[0].obs_dim
        self._ent = np.stack([_log(m.entry) for m in models])
        self._tr = np.stack([_log(m.trans) for m in models])
        self._eps = np.stack([_log(m.advance) for m in models])
        self._hold = np.stack([_log(1.0 - m.advance) for m in models])
        self._marg = _BatchGmm([list(m.marginal) for m in models], self.obs_dim)
        self._joint = _BatchGmm([list(m.joint) for m in models], 2 * self.obs_dim)
        # band cells per step of a full window
        self._D = min(self.dt, self.window - 1) + 1
        # profiles of frame _t only: a lookup at another frame drops them
        self._t: int | None = None
        self._cache: dict[tuple, np.ndarray | None] = {}
        # emission rows of the frames [_t - window + 1, _t]
        self._blocks: dict[int, _FrameRows] = {}

    def profile(self, subject, target, t: int) -> np.ndarray | None:
        key = (feats.as_entity(subject), feats.as_entity(target))
        if t != self._t or key not in self._cache:
            self.profiles([key], t)
        return self._cache[key]

    def profiles(self, items: list[tuple], t: int) -> dict[tuple, np.ndarray | None]:
        """Profiles for many (subject, target) entity pairs at one frame.

        Each is a read-only row of values in ``labels`` order, or None when
        no usable window of length >= 2 ends at ``t``.
        """
        if t != self._t:
            self._cache.clear()
            if self._t is not None and t < self._t:
                # an earlier window may start earlier and need more joint cells
                self._blocks.clear()
            self._t = t
        for u in [u for u in self._blocks if not t - self.window < u <= t]:
            del self._blocks[u]
        out: dict[tuple, np.ndarray | None] = {}
        keys, windows = [], []
        for a, b in items:
            key = (feats.as_entity(a), feats.as_entity(b))
            if key in self._cache:
                out[key] = self._cache[key]
                continue
            pw = feats.pair_feature_windows(self.tracks, *key, t, self.window)
            if pw is None:
                self._cache[key] = out[key] = None
                continue
            keys.append(key)
            windows.append(pw)
        if not keys:
            return out
        lengths = np.array([fa.shape[0] for fa, _ in windows])
        rows = self._emission_rows(keys, windows, lengths, t)
        for T in np.unique(lengths).tolist():
            sel = np.flatnonzero(lengths == T)
            masses = self._window_masses(rows[:, sel], T, t)  # (I, A)
            vals = np.exp(masses - logsumexp(masses, axis=1)[:, None])
            vals.flags.writeable = False
            for j, row in zip(sel.tolist(), vals):
                self._cache[keys[j]] = out[keys[j]] = row
        return out

    def _emission_rows(self, keys, windows, lengths: np.ndarray, t: int) -> np.ndarray:
        """Row of every item in the block of each frame ``t - window + 1 + k``, shape (window, I).

        Computes the rows that a block lacks for frames inside the item's
        window, one frame's rows per batched density call.  Frames ascend
        between block clears, so a window never starts before that of a
        stored row and the row has every cell the window reaches.
        """
        W, D = self.window, self._D
        starts = t + 1 - lengths
        rows = np.empty((W, len(keys)), dtype=np.intp)
        flat = None
        for k, u in enumerate(range(t - W + 1, t + 1)):
            block = self._blocks.get(u)
            if block is None:
                block = self._blocks[u] = _FrameRows(len(self.labels), D, self.n_states)
            rows[k] = block.lookup(keys)
            miss = np.flatnonzero((rows[k] < 0) & (u >= starts))
            if miss.size:
                if flat is None:
                    fa = np.concatenate([w[0] for w in windows])
                    fb = np.concatenate([w[1] for w in windows])
                    flat = fa, fb, np.cumsum(lengths) - lengths - starts
                # cells from u back to the window start
                cells = np.minimum(D, u + 1 - starts[miss])
                me, je = self._frame_emissions(*flat, miss, u, cells)
                rows[k, miss] = block.store([keys[i] for i in miss], me, je)
        return rows

    def _frame_emissions(self, fa, fb, base, items: np.ndarray, u: int, cells: np.ndarray):
        """Marginal and band-joint rows at frame ``u`` of ``items``.

        ``fa``/``fb`` hold every item's window back to back, frame ``v`` of
        item ``i`` at ``base[i] + v``; joint cells ``h >= cells`` are -inf.
        """
        d = self.obs_dim
        h = np.arange(self._D)
        at = base[items] + u
        live = h[None, :] < cells[:, None]
        # advancing from cell (u, h) consumes fa[u-h]
        src = np.where(live, at[:, None] - h[None, :], at[:, None])
        pairs = np.concatenate(
            [fa[src], np.broadcast_to(fb[at][:, None, :], src.shape + (d,))], axis=2
        )
        je = self._joint.log_density(pairs.reshape(-1, 2 * d)).reshape(src.shape + self._eps.shape)
        je[~live] = -np.inf
        je += self._eps
        me = self._marg.log_density(fb[at]) + self._hold
        return me, je.swapaxes(1, 2)

    def _window_masses(self, rows: np.ndarray, T: int, t: int) -> np.ndarray:
        """Log lattice masses near the diagonal of I windows of ``T`` frames, shape (I, A).

        ``rows`` (window, I) locates the items in the frame blocks.  The
        read-out keeps only final cells with ``s >= max(1, T - dt)``, i.e.
        hold count ``h < D = min(dt, T-1) + 1``, so the sweep runs on the
        band of :func:`_band_forward`.
        """
        I = rows.shape[1]
        A, n = len(self.labels), self.n_states
        D = min(self.dt, T - 1) + 1
        # time-major: (T, I, A, D, n) advance and (T, I, A, n) hold weights
        ae = np.empty((T, I, A, D, n))
        hm = np.empty((T, I, A, n))
        for k in range(T):
            block = self._blocks[t - T + 1 + k]
            r = rows[self.window - T + k]
            hm[k] = block.marg[r]
            # cells h > k, whose source frame precedes the window start, may
            # hold a longer window's values; the sweep never enters them
            ae[k] = block.joint[r, :, :D]
        _, la = _band_forward(self._ent, self._tr, ae, hm)
        # descending h is ascending s, the scalar read-out's summation order
        return logsumexp(la[-1, :, :, ::-1, :].reshape(I, A, -1), axis=2)

    def group_score(self, label: str, members, t: int) -> float | None:
        """Windowed group-feature likelihood under an activity's group model."""
        model = self.bank.group_models.get(label)
        if model is None:
            return None
        win = feats.group_feature_window(self.tracks, members, t, self.window)
        if win is None:
            return None
        return hmm_group_likelihood(model, win)
