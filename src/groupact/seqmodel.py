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
            if jdims != {2 * self.obs_dim_raw(dims)}:
                raise ValueError("joint mixtures must cover concatenated observation pairs")
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "exit", exit_)
        object.__setattr__(self, "advance", adv)
        object.__setattr__(self, "marginal", tuple(self.marginal))
        if self.joint is not None:
            object.__setattr__(self, "joint", tuple(self.joint))

    @staticmethod
    def obs_dim_raw(dims: set[int]) -> int:
        return next(iter(dims))

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
        missing = [l for l in self.taxonomy.modelable_labels() if l not in self.models]
        if missing:
            raise ValueError(f"bank lacks models for activities: {missing}")

    def labels(self) -> list[str]:
        return sorted(self.models)


@dataclass(frozen=True)
class CorrelationProfile:
    """Per-activity correlation mass of a target entity w.r.t. a subject."""

    subject: tuple[int, ...]
    target: tuple[int, ...]
    frame: int
    values: dict[str, float]
    label: str

    def value(self, label: str) -> float:
        return self.values[label]


def _argmax_label(values: dict[str, float]) -> str:
    best = None
    best_v = -np.inf
    for label in sorted(values):
        if values[label] > best_v:
            best, best_v = label, values[label]
    return best


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
    logb = np.stack([g.log_density(obs) for g in model.joint], axis=1)
    return _hmm_forward_loglik(model, logb)


def hmm_group_likelihood(model: ActivityModel, fa: np.ndarray) -> float:
    """Synchronous forward over a single observation stream (marginal emissions)."""
    fa = np.atleast_2d(np.asarray(fa, dtype=float))
    if fa.shape[0] < 1:
        raise ValueError("sequence must be non-empty")
    if fa.shape[1] != model.obs_dim:
        raise ValueError("observation dimension does not match emission models")
    logb = np.stack([g.log_density(fa) for g in model.marginal], axis=1)
    return _hmm_forward_loglik(model, logb)


def _hmm_forward_loglik(model: ActivityModel, logb: np.ndarray) -> float:
    log_trans = _log(model.trans)
    alpha = _log(model.entry) + logb[0]
    for t in range(1, logb.shape[0]):
        alpha = logsumexp(alpha[:, None] + log_trans, axis=0) + logb[t]
    return float(logsumexp(alpha + _log(model.exit)))


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
) -> CorrelationProfile | None:
    """Correlation profile of ``target`` w.r.t. ``subject`` at frame ``t``.

    The subject's stream feeds the advance branch (first stream).  Returns
    None when no usable observation window of length >= 2 ends at ``t``.
    Profile values sum to one across the bank's activities.
    """
    window = window if window is not None else bank.window
    dt = dt if dt is not None else bank.dt
    ea, eb = feats.as_entity(subject), feats.as_entity(target)
    pairw = feats.pair_feature_windows(tracks, ea, eb, t, window)
    if pairw is None:
        return None
    fa, fb = pairw
    masses = {label: window_log_mass(bank.models[label], fa, fb, dt) for label in bank.models}
    den = logsumexp(np.array(list(masses.values())))
    values = {label: float(np.exp(m - den)) for label, m in masses.items()}
    return CorrelationProfile(ea, eb, t, values, _argmax_label(values))


def asymmetry_check(
    bank: ActivityModelBank, tracks: TrackSet, i, j, t: int
) -> tuple[CorrelationProfile | None, CorrelationProfile | None]:
    """Correlation profiles in both argument orders."""
    return correlation(bank, tracks, i, j, t), correlation(bank, tracks, j, i, t)


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


def train_activity_model(
    segments: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig | None = None,
    label: str = "activity",
    kind: str = "symmetric",
    return_history: bool = False,
):
    """Fit an activity model to ordered stream pairs by expectation-maximisation.

    Each segment is ``(fi, fj)`` with ``len(fi) <= len(fj)``.  The E-step runs
    exact forward-backward over the alignment-state lattice; the M-step
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
    if config.max_segments is not None and len(segs) > config.max_segments:
        idx = np.linspace(0, len(segs) - 1, config.max_segments).astype(int)
        segs = [segs[i] for i in sorted(set(idx.tolist()))]
    d = segs[0][0].shape[1]
    n = config.states

    joint_pools = _temporal_pools(
        [np.concatenate([fi[: min(len(fi), len(fj))], fj[: min(len(fi), len(fj))]], axis=1) for fi, fj in segs],
        n,
    )
    marg_pools = _temporal_pools([fj for _, fj in segs], n)
    # per-dimension floors keyed to the pooled spread keep collapsed
    # components from spiking the density scale
    marg_floor = _dim_floor(np.concatenate([fj for _, fj in segs], axis=0), config)
    joint_floor = _dim_floor(np.concatenate(joint_pools, axis=0), config)
    joint, fb1 = _init_mixtures(joint_pools, config.mixtures, config.seed, joint_floor)
    marginal, fb2 = _init_mixtures(marg_pools, config.mixtures, config.seed + 7, marg_floor)
    fallback = fb1 or fb2

    mean_t = float(np.mean([fj.shape[0] for _, fj in segs]))
    exit0 = min(0.5, 1.0 / mean_t)
    if n == 1:
        trans = np.array([[1.0 - exit0]])
    else:
        base = np.full((n, n), 0.4 / (n - 1))
        np.fill_diagonal(base, 0.6)
        trans = base * (1.0 - exit0)
    entry = np.full(n, 1.0 / n)
    exit_ = np.full(n, exit0)
    if config.fix_advance is not None:
        advance = np.full(n, float(config.fix_advance))
    else:
        advance = np.full(n, 0.7)

    history: list[float] = []
    prev_ll = -np.inf
    model = ActivityModel(label, kind, entry, trans, exit_, advance, marginal, joint, fallback)
    for _ in range(config.max_iters):
        stats = _EmStats(n, d, config, marg_floor, joint_floor)
        ll = 0.0
        slack = 0 if config.fix_advance is not None else config.terminal_slack
        for fi, fj in segs:
            ll += _accumulate_segment(model, fi, fj, stats, slack)
        history.append(ll)
        model = stats.m_step(model)
        if prev_ll > -np.inf and ll - prev_ll < config.tol * max(1.0, abs(prev_ll)):
            break
        prev_ll = ll
    if return_history:
        return model, history
    return model


class _EmStats:
    """Accumulated expected counts for one EM iteration."""

    def __init__(self, n: int, d: int, config: TrainConfig, marg_floor=None, joint_floor=None):
        self.config = config
        self.marg_floor = config.var_floor if marg_floor is None else marg_floor
        self.joint_floor = config.var_floor if joint_floor is None else joint_floor
        self.entry = np.zeros(n)
        self.trans = np.zeros((n, n))
        self.exit = np.zeros(n)
        self.adv = np.zeros(n)
        self.hold = np.zeros(n)
        self.joint_x: list[np.ndarray] = []
        self.joint_w: list[np.ndarray] = []  # (P, n) weights per state
        self.marg_x: list[np.ndarray] = []
        self.marg_w: list[np.ndarray] = []

    def m_step(self, model: ActivityModel) -> ActivityModel:
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
        if cfg.fix_advance is not None:
            advance = np.full(n, float(cfg.fix_advance))
        else:
            tot = self.adv + self.hold
            advance = model.advance.copy()
            mask = tot > 1e-10
            advance[mask] = self.adv[mask] / tot[mask]
            advance = np.clip(advance, cfg.eps_min, 1.0 - cfg.eps_min)
        joint = model.joint
        if self.joint_x:
            jx = np.concatenate(self.joint_x, axis=0)
            jw = np.concatenate(self.joint_w, axis=0)
            joint = tuple(
                _fit_weighted_mixture(model.joint[k], jx, jw[:, k], self.joint_floor) for k in range(n)
            )
        marginal = model.marginal
        if self.marg_x:
            mx = np.concatenate(self.marg_x, axis=0)
            mw = np.concatenate(self.marg_w, axis=0)
            marginal = tuple(
                _fit_weighted_mixture(model.marginal[k], mx, mw[:, k], self.marg_floor) for k in range(n)
            )
        return ActivityModel(
            model.label, model.kind, entry, trans, exit_, advance, marginal, joint,
            model.mixture_fallback,
        )


def _accumulate_segment(
    model: ActivityModel, fi: np.ndarray, fj: np.ndarray, stats: _EmStats,
    terminal_slack: int = 0,
) -> float:
    """Exact E-step over one segment; returns its log-likelihood."""
    S, T = fi.shape[0], fj.shape[0]
    n = model.n_states
    log_entry = _log(model.entry)
    log_trans = _log(model.trans)
    log_exit = _log(model.exit)
    log_eps = _log(model.advance)
    log_hold = _log(1.0 - model.advance)
    logp_m, logp_j = _emission_tables(model, fi, fj)

    la = np.full((T, S + 1, n), -np.inf)
    tins = np.full((T, S + 1, n), -np.inf)
    la[0, 0, :] = log_entry + log_hold + logp_m[0]
    la[0, 1, :] = log_entry + log_eps + logp_j[0, 0]
    for t in range(1, T):
        tin = logsumexp(la[t - 1][:, :, None] + log_trans[None, :, :], axis=1)
        tins[t] = tin
        hold = tin + (log_hold + logp_m[t])[None, :]
        adv = np.full_like(hold, -np.inf)
        smax = min(t + 1, S)
        adv[1 : smax + 1] = tin[0:smax] + log_eps[None, :] + logp_j[0:smax, t]
        la[t] = np.logaddexp(hold, adv)

    lb = np.full((T, S + 1, n), -np.inf)
    s_lo = max(0, S - terminal_slack)
    lb[T - 1, s_lo : S + 1, :] = log_exit
    for t in range(T - 2, -1, -1):
        nxt = lb[t + 1]
        inner_hold = (log_hold + logp_m[t + 1])[None, :] + nxt  # (S+1, n)
        inner_adv = np.full_like(inner_hold, -np.inf)
        inner_adv[0:S] = log_eps[None, :] + logp_j[:, t + 1] + nxt[1 : S + 1]
        inner = np.logaddexp(inner_hold, inner_adv)
        lb[t] = logsumexp(log_trans[None, :, :] + inner[:, None, :], axis=2)

    total = logsumexp(la[T - 1] + lb[T - 1])
    if not np.isfinite(total):
        raise DataError("segment has zero likelihood under the current model")

    # entry and exit occupancies
    stats.entry += np.exp(logsumexp(la[0] + lb[0], axis=0) - total)
    stats.exit += np.exp(logsumexp(la[T - 1] + lb[T - 1], axis=0) - total)

    # branch-resolved node posteriors
    adv_node = np.full((T, S + 1, n), -np.inf)
    hold_node = np.full((T, S + 1, n), -np.inf)
    adv_node[0, 1, :] = log_entry + log_eps + logp_j[0, 0] + lb[0, 1, :]
    hold_node[0, 0, :] = log_entry + log_hold + logp_m[0] + lb[0, 0, :]
    for t in range(1, T):
        tin = tins[t]
        hold_node[t] = tin + (log_hold + logp_m[t])[None, :] + lb[t]
        smax = min(t + 1, S)
        adv_node[t, 1 : smax + 1] = (
            tin[0:smax] + log_eps[None, :] + logp_j[0:smax, t] + lb[t, 1 : smax + 1]
        )
    adv_w = np.exp(adv_node - total)
    hold_w = np.exp(hold_node - total)
    stats.adv += adv_w.sum(axis=(0, 1))
    stats.hold += hold_w.sum(axis=(0, 1))

    # transitions between consecutive steps, both branches
    for t in range(T - 1):
        nxt = lb[t + 1]
        inner_hold = (log_hold + logp_m[t + 1])[None, :] + nxt
        inner_adv = np.full_like(inner_hold, -np.inf)
        inner_adv[0:S] = log_eps[None, :] + logp_j[:, t + 1] + nxt[1 : S + 1]
        inner = np.logaddexp(inner_hold, inner_adv)  # (S+1, n_next)
        xi = logsumexp(
            la[t][:, :, None] + log_trans[None, :, :] + inner[:, None, :], axis=0
        )
        stats.trans += np.exp(xi - total)

    # emission statistics: joint on advance nodes, marginal on hold mass
    jx = np.concatenate([np.repeat(fi, T, axis=0), np.tile(fj, (S, 1))], axis=1)
    stats.joint_x.append(jx)
    stats.joint_w.append(adv_w[:, 1:, :].transpose(1, 0, 2).reshape(S * T, n))
    stats.marg_x.append(fj)
    stats.marg_w.append(hold_w.sum(axis=1))
    return float(total)


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
    seqs = [np.atleast_2d(np.asarray(s, dtype=float)) for s in sequences]
    if config.max_segments is not None and len(seqs) > config.max_segments:
        idx = np.linspace(0, len(seqs) - 1, config.max_segments).astype(int)
        seqs = [seqs[i] for i in sorted(set(idx.tolist()))]
    n = config.states
    pools = _temporal_pools(seqs, n)
    floor = _dim_floor(np.concatenate(seqs, axis=0), config)
    marginal, fallback = _init_mixtures(pools, config.mixtures, config.seed + 3, floor)
    mean_t = float(np.mean([s.shape[0] for s in seqs]))
    exit0 = min(0.5, 1.0 / mean_t)
    if n == 1:
        trans = np.array([[1.0 - exit0]])
    else:
        base = np.full((n, n), 0.4 / (n - 1))
        np.fill_diagonal(base, 0.6)
        trans = base * (1.0 - exit0)
    model = ActivityModel(
        label, kind, np.full(n, 1.0 / n), trans, np.full(n, exit0), None, marginal, None, fallback
    )

    history: list[float] = []
    prev_ll = -np.inf
    for _ in range(config.max_iters):
        entry_c = np.zeros(n)
        trans_c = np.zeros((n, n))
        exit_c = np.zeros(n)
        xs, ws = [], []
        log_trans = _log(model.trans)
        ll = 0.0
        for s in seqs:
            logb = np.stack([g.log_density(s) for g in model.marginal], axis=1)
            T = s.shape[0]
            la = np.full((T, n), -np.inf)
            la[0] = _log(model.entry) + logb[0]
            for t in range(1, T):
                la[t] = logsumexp(la[t - 1][:, None] + log_trans, axis=0) + logb[t]
            lb = np.full((T, n), -np.inf)
            lb[T - 1] = _log(model.exit)
            for t in range(T - 2, -1, -1):
                lb[t] = logsumexp(log_trans + (logb[t + 1] + lb[t + 1])[None, :], axis=1)
            total = logsumexp(la[T - 1] + lb[T - 1])
            ll += float(total)
            gamma = np.exp(la + lb - total)
            entry_c += gamma[0]
            exit_c += gamma[T - 1]
            for t in range(T - 1):
                xi = la[t][:, None] + log_trans + (logb[t + 1] + lb[t + 1])[None, :]
                trans_c += np.exp(xi - total)
            xs.append(s)
            ws.append(gamma)
        history.append(ll)
        entry = entry_c / entry_c.sum() if entry_c.sum() > 0 else model.entry
        rows = trans_c.sum(axis=1) + exit_c
        trans = model.trans.copy()
        exit_ = model.exit.copy()
        for k in range(n):
            if rows[k] > 1e-10:
                trans[k] = trans_c[k] / rows[k]
                exit_[k] = exit_c[k] / rows[k]
        x = np.concatenate(xs, axis=0)
        w = np.concatenate(ws, axis=0)
        marginal = tuple(
            _fit_weighted_mixture(model.marginal[k], x, w[:, k], floor) for k in range(n)
        )
        model = ActivityModel(label, kind, entry, trans, exit_, None, marginal, None, fallback)
        if prev_ll > -np.inf and ll - prev_ll < config.tol * max(1.0, abs(prev_ll)):
            break
        prev_ll = ll
    if return_history:
        return model, history
    return model


def _stream_chunks(
    tracks: TrackSet, ea, eb, start: int, end: int, chunk: int, min_len: int = 4
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ordered feature-stream pairs over an interval, split at gaps and chunked."""
    out = []
    lo = max(start, 1)
    ta = feats.EntityTrack(tracks, feats.as_entity(ea), lo - 1, end)
    tb = feats.EntityTrack(tracks, feats.as_entity(eb), lo - 1, end)
    both = ta.valid & tb.valid
    ok = both[1:] & both[:-1]
    run_start = None
    runs = []
    for i, v in enumerate(list(ok) + [False]):
        if v and run_start is None:
            run_start = i
        elif not v and run_start is not None:
            runs.append((run_start, i))
            run_start = None
    for a, b in runs:
        idx_all = np.arange(a + 1, b + 1)
        for c0 in range(0, idx_all.size, chunk):
            idx = idx_all[c0 : c0 + chunk]
            if idx.size < min_len:
                continue
            fa = _subject(ta, tb, idx)
            fb = _subject(tb, ta, idx)
            out.append((fa, fb))
    return out


def _subject(ta, tb, idx):
    return feats._subject_features(ta, tb, idx)


def _group_chunks(
    tracks: TrackSet, members, start: int, end: int, chunk: int, min_len: int = 4
) -> list[np.ndarray]:
    """Group-feature sequences over an interval, split at gaps and chunked."""
    ms = feats.as_entity(members)
    lo = max(start, 1)
    allv = np.logical_and.reduce(
        [feats.EntityTrack(tracks, (m,), lo - 1, end).valid for m in ms]
    )
    ok = allv[1:] & allv[:-1]
    out = []
    run_start = None
    runs = []
    for i, v in enumerate(list(ok) + [False]):
        if v and run_start is None:
            run_start = i
        elif not v and run_start is not None:
            runs.append((run_start, i))
            run_start = None
    for a, b in runs:
        frames_all = np.arange(lo + a, lo + b)
        for c0 in range(0, frames_all.size, chunk):
            frames = frames_all[c0 : c0 + chunk]
            if frames.size < min_len:
                continue
            out.append(feats._group_rows(tracks, ms, frames))
    return out


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
        return logsumexp(comp, axis=3)


class CorrelationEngine:
    """Batched correlation evaluation for a fixed bank over one track set.

    Computes the same profiles as :func:`correlation` but stacks all
    activities (and many entity pairs) into single vectorised lattice sweeps,
    which is what makes per-frame clustering affordable.
    """

    def __init__(self, bank: ActivityModelBank, tracks: TrackSet,
                 window: int | None = None, dt: int | None = None):
        self.bank = bank
        self.tracks = tracks
        self.window = window if window is not None else bank.window
        self.dt = dt if dt is not None else bank.dt
        check_window(self.window, self.dt)
        self.labels = bank.labels()
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
        self._cache: dict[tuple, CorrelationProfile | None] = {}

    def profile(self, subject, target, t: int) -> CorrelationProfile | None:
        ea, eb = feats.as_entity(subject), feats.as_entity(target)
        key = (ea, eb, t)
        if key not in self._cache:
            self.profiles([(ea, eb)], t)
        return self._cache[key]

    def profiles(
        self, items: list[tuple], t: int
    ) -> dict[tuple, CorrelationProfile | None]:
        """Profiles for many (subject, target) entity pairs at one frame."""
        out: dict[tuple, CorrelationProfile | None] = {}
        todo = []
        for a, b in items:
            key = (feats.as_entity(a), feats.as_entity(b), t)
            if key in self._cache:
                out[(key[0], key[1])] = self._cache[key]
            else:
                todo.append(key)
        by_len: dict[int, list] = {}
        windows: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        for key in todo:
            ea, eb, _ = key
            pw = feats.pair_feature_windows(self.tracks, ea, eb, t, self.window)
            if pw is None:
                self._cache[key] = None
                out[(ea, eb)] = None
                continue
            windows[key] = pw
            by_len.setdefault(pw[0].shape[0], []).append(key)
        for n, keys in sorted(by_len.items()):
            fa = np.stack([windows[k][0] for k in keys])
            fb = np.stack([windows[k][1] for k in keys])
            masses = self._window_masses(fa, fb)  # (I, A)
            den = logsumexp(masses, axis=1)
            vals = np.exp(masses - den[:, None])
            for i, key in enumerate(keys):
                values = {l: float(vals[i, a]) for a, l in enumerate(self.labels)}
                prof = CorrelationProfile(key[0], key[1], t, values, _argmax_label(values))
                self._cache[key] = prof
                out[(key[0], key[1])] = prof
        return out

    def _window_masses(self, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
        """Log lattice masses near the diagonal, shape (items, activities).

        Cells are indexed by hold count ``h = (t+1) - s`` rather than by the
        consumed prefix ``s``: an advance keeps ``h`` and a hold raises it by
        one, so ``h`` never decreases along a path.  The read-out keeps only
        final cells with ``s >= max(1, W - dt)``, i.e. ``h < D`` with
        ``D = min(dt, W-1) + 1``, so a cell with ``h >= D`` cannot reach it and
        dropping it is exact.  The band holds ``D`` cells per step and needs
        joint emissions only for ``(fa[t-h], fb[t])``.
        """
        I, W, d = fa.shape
        A, n = len(self.labels), self.n_states
        D = min(self.dt, W - 1) + 1
        me = self._marg.log_density(fb.reshape(I * W, d)).reshape(I, W, A, n)
        # band cell (t, h) advances on fa[t-h]; t-h < 0 means nothing to consume
        src = np.arange(W)[:, None] - np.arange(D)[None, :]
        pairs = np.concatenate(
            [
                fa[:, np.maximum(src, 0)],
                np.broadcast_to(fb[:, :, None, :], (I, W, D, d)),
            ],
            axis=3,
        )
        je = self._joint.log_density(pairs.reshape(I * W * D, 2 * d)).reshape(I, W, D, A, n)
        je[:, src < 0] = -np.inf
        la = np.full((I, A, D, n), -np.inf)
        la[:, :, 0, :] = self._ent[None] + self._eps[None] + je[:, 0, 0]
        if D > 1:
            la[:, :, 1, :] = self._ent[None] + self._hold[None] + me[:, 0]
        for t in range(1, W):
            tin = logsumexp(la[:, :, :, :, None] + self._tr[None, :, None, :, :], axis=3)
            hold = np.full_like(tin, -np.inf)
            hold[:, :, 1:, :] = tin[:, :, :-1, :] + (
                self._hold[None, :, None, :] + me[:, t][:, :, None, :]
            )
            adv = tin + self._eps[None, :, None, :] + je[:, t].transpose(0, 2, 1, 3)
            la = np.logaddexp(hold, adv)
        # descending h is ascending s, the scalar read-out's summation order
        return logsumexp(la[:, :, ::-1, :].reshape(I, A, -1), axis=2)

    def group_score(self, label: str, members, t: int) -> float | None:
        """Windowed group-feature likelihood under an activity's group model."""
        model = self.bank.group_models.get(label)
        if model is None:
            return None
        win = feats.group_feature_window(self.tracks, members, t, self.window)
        if win is None:
            return None
        return hmm_group_likelihood(model, win)
