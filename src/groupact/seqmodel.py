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
from itertools import repeat

import numpy as np

from . import features as feats
from . import taxonomy
from .gmm import VAR_FLOOR, GaussianMixture, fit_em, logsumexp, refit, run_em
from .trackio import AnnotationSet, TrackSet

N_STATES = N_MIXTURES = 2  # hidden states per trained model, mixture components per state
MIN_CHUNK = 4  # frames in the shortest training piece
EPS_MIN = 1e-3
REL_VAR_FLOOR = 0.01  # per-dimension variance floor, as a fraction of the pooled variance


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


@dataclass(frozen=True, kw_only=True)
class ActivityModelBank:
    """One trained model per modelable activity, group-feature models for some
    grouping activities, the window and dt of training, and detection thresholds."""

    models: dict[str, ActivityModel]
    group_models: dict[str, ActivityModel] = field(default_factory=dict)
    window: int
    dt: int
    tc: float = 0.1
    to: float = 0.95
    tr: float = 0.3

    def __post_init__(self) -> None:
        check_window(self.window, self.dt)
        check_thresholds(tc=self.tc, to=self.to, tr=self.tr)
        missing = [l for l in taxonomy.MODELABLE_LABELS if l not in self.models]
        if missing:
            raise ValueError(f"bank lacks models for activities: {missing}")
        extra = sorted(set(self.models) - set(taxonomy.MODELABLE_LABELS))
        if extra:
            raise ValueError(f"bank has models for unknown activities: {extra}")
        extra = sorted(set(self.group_models) - set(taxonomy.GROUPING_LABELS))
        if extra:
            raise ValueError(f"bank has group models for non-grouping activities: {extra}")

    def labels(self) -> list[str]:
        return sorted(self.models)


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


def _band_forward(log_entry, log_trans, ae, hm, add=np.logaddexp):
    """Forward sweep over the hold-count band of the alignment lattice.

    Cell ``h = (t+1) - s`` counts the holds so far: an advance keeps it and a
    hold raises it, so a read-out that needs ``h < D`` keeps ``D`` cells per
    step.  Step ``t`` of ``ae`` is (..., D, n, I), the log weight of
    advancing from cell ``h`` (-inf where nothing is left to consume), and
    step ``t`` of ``hm`` is (..., n, I), that of holding.  The item axis
    ``I`` is last, so every ufunc call loops over all items at once rather
    than over the few cells and states.  ``ae`` and ``hm`` are (T, ...)
    arrays or iterables of their steps; ``log_entry`` (..., n, I) and
    ``log_trans`` (..., n, n, I) broadcast over the other batch axes, and
    over the item axis where it has length 1, so each item (a column) may
    carry its own chain weights.  Cells
    ``h > t`` are never entered, so their ``ae`` values never reach the
    mass.  Yields the log mass entering and leaving each step, both shaped
    like that step of ``ae``; a caller that needs only the last step keeps
    no other.  With ``D = 1`` this is the plain HMM forward.

    ``add`` is the semiring's sum.  ``np.logaddexp`` gives the lattice
    mass; ``np.maximum`` gives the weight of the best path into each cell
    (the max-product recursion), which is never above the mass and, as the
    band holds at most ``(2n)**T`` paths, at least the mass minus
    ``T * log(2n)``.
    """
    tr = log_trans[..., None, :, :, :]  # (..., 1, n, n, I)
    for t, (ae_t, hm_t) in enumerate(zip(ae, hm)):
        if t:
            tin = la[..., :, 0, None, :] + tr[..., 0, :, :]
            for i in range(1, tr.shape[-3]):
                tin = add(tin, la[..., :, i, None, :] + tr[..., i, :, :])
        else:
            tin = np.full(ae_t.shape, -np.inf)
            tin[..., 0, :, :] = log_entry
        la = tin + ae_t
        add(la[..., 1:, :, :], tin[..., :-1, :, :] + hm_t[..., None, :, :], out=la[..., 1:, :, :])
        yield tin, la


# exp(x) rounds to 0.0 in float64 for every x below about -745.13
_EXP_UNDERFLOW = 746.0
# rounding in the two sweeps: a fixed part, and a part relative to |V| for
# coordinates whose path weights run far beyond 1e10 nats
_SLACK_NATS, _SLACK_REL = 32.0, 1e-12


def _open_cells(V: np.ndarray, T: int, n: int) -> np.ndarray:
    """The (activity, item) cells that can reach an item's profile, (A, I) bool.

    ``V`` (A, I) holds each item's max-plus read-out per activity: the
    weight of the best path over the final band cells of a ``T``-step sweep
    with ``n`` states.  Each activity's lattice mass lies in
    ``[V, V + T log(2n)]``.  A cell is closed when the item's top activity
    leads it by more than ``746 + T log(2n)`` nats plus a slack for rounding
    in both sweeps: then ``exp(mass - row max)`` is 0.0 for it, in
    ``logsumexp``'s normaliser and in the profile, exactly as for a mass of
    -inf.  The top cell is always open, so an item with one open cell is
    bitwise 1.0 there and 0.0 elsewhere.  An item with no finite ``V``
    keeps every cell open.
    """
    top = V.max(axis=0)
    margin = _EXP_UNDERFLOW + T * np.log(2 * n) + _SLACK_NATS + _SLACK_REL * np.abs(top)
    with np.errstate(invalid="ignore"):  # -inf - -inf: an item with no path at all
        return ~(top - V > margin) | ~np.isfinite(top)


def _band_posteriors(model: ActivityModel, ae: np.ndarray, hm: np.ndarray, stats: _EmStats):
    """Forward-backward over the band of B sequences of one shape.

    ``ae`` (T, B, D, n) and ``hm`` (T, B, n) are the weights of
    :func:`_band_forward` with the batch axis second.
    Adds the expected chain counts to ``stats`` and returns the
    log-likelihoods (B,), the posteriors (T, B, D, n) of advancing from each
    cell and those (T, B, n) of holding at each step.
    """
    log_trans, log_exit = _log(model.trans), _log(model.exit)
    steps = _band_forward(_log(model.entry)[:, None], log_trans[..., None],
                          np.moveaxis(ae, 1, -1), np.moveaxis(hm, 1, -1))
    # back to C-ordered (T, B, D, n), so that every sum below adds in the same order
    tin, la = (np.ascontiguousarray(np.moveaxis(np.stack(xs), -1, 1)) for xs in zip(*steps))
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
    for _, la in _band_forward(_log(model.entry)[:, None], _log(model.trans)[..., None],
                               logb[:, None, :, None], np.full(logb.shape + (1,), -np.inf)):
        pass
    return float(logsumexp(la[0, :, 0] + _log(model.exit)))


def hmm_group_likelihood(model: ActivityModel, fa: np.ndarray) -> float:
    """Synchronous forward over a single observation stream (marginal emissions)."""
    fa = np.atleast_2d(np.asarray(fa, dtype=float))
    if fa.shape[0] < 1:
        raise ValueError("sequence must be non-empty")
    if fa.shape[1] != model.obs_dim:
        raise ValueError("observation dimension does not match emission models")
    return _hmm_loglik(model, np.stack([g.log_density(fa) for g in model.marginal], axis=1))


@dataclass
class TrainConfig:
    """Knobs for sequence-model training; deterministic given ``seed``."""

    seed: int = 0
    max_iters: int = 40
    fix_advance: float | None = None
    chunk: int | None = None
    max_segments: int | None = 64

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.max_segments is not None and self.max_segments < 1:
            raise ValueError(f"max_segments must be at least 1 or None, got {self.max_segments}")


def _dim_floor(pooled: np.ndarray) -> np.ndarray:
    """Per-dimension variance floor: a fraction of the pooled data variance."""
    spread = pooled.var(axis=0) if pooled.shape[0] else np.zeros(pooled.shape[1])
    return np.maximum(VAR_FLOOR, REL_VAR_FLOOR * spread)


def _init_mixtures(pools: list[np.ndarray], seed: int, var_floor):
    """Per-state mixtures of ``N_MIXTURES`` components from temporal pools;
    a pool of fewer than two rows per component falls back to one."""
    mixes = []
    fallback = False
    for i, pool in enumerate(pools):
        if pool.shape[0] == 0:
            raise DataError("no observations available to initialise emissions")
        k = N_MIXTURES if pool.shape[0] >= 2 * N_MIXTURES else 1
        fallback = fallback or k < N_MIXTURES
        gm, _ = fit_em(pool, k, seed=seed * 31 + i, var_floor=var_floor)
        mixes.append(gm)
    return tuple(mixes), fallback


def _temporal_pools(rows_per_segment: list[np.ndarray]) -> list[np.ndarray]:
    """Each segment's rows cut into ``N_STATES`` consecutive runs, pooled per run."""
    pools: list[list[np.ndarray]] = [[] for _ in range(N_STATES)]
    for rows in rows_per_segment:
        m = rows.shape[0]
        if m == 0:
            continue
        bounds = np.linspace(0, m, N_STATES + 1).astype(int)
        for k in range(N_STATES):
            chunk = rows[bounds[k] : bounds[k + 1]]
            if chunk.shape[0] == 0:
                chunk = rows
            pools[k].append(chunk)
    return [np.concatenate(p, axis=0) if p else np.empty((0, rows_per_segment[0].shape[1])) for p in pools]


def _fit_weighted_mixture(
    old: GaussianMixture, x: np.ndarray, w: np.ndarray, var_floor: float
) -> GaussianMixture:
    """One weighted maximisation step for a mixture given point weights;
    ``old`` stays when a component would get almost no mass."""
    comp = old.component_log_density(x) + np.log(old.weights)[None, :]
    comp -= logsumexp(comp, axis=1)[:, None]
    r = np.exp(comp) * w[:, None]
    mass = r.sum(axis=0)
    if np.any(mass < 1e-10):
        return old
    return refit(x, r, mass, var_floor)


def _subsample(items: list, limit: int | None) -> list:
    """At most ``limit`` of ``items``, evenly spaced and in order."""
    if limit is None or len(items) <= limit:
        return items
    idx = np.linspace(0, len(items) - 1, limit).astype(int)
    return [items[i] for i in sorted(set(idx.tolist()))]


def _initial_chain(mean_len: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform entry, exit ``1 / mean_len`` (at most 0.5), diagonal-heavy transitions."""
    n = N_STATES
    exit0 = min(0.5, 1.0 / mean_len)
    trans = np.full((n, n), 0.4 / (n - 1))
    np.fill_diagonal(trans, 0.6)
    trans *= 1.0 - exit0
    return np.full(n, 1.0 / n), trans, np.full(n, exit0)


def _em_step(batches: list[tuple], accumulate, config: TrainConfig, marg_floor, joint_floor=VAR_FLOOR):
    """The :func:`~groupact.gmm.run_em` step over ``batches``;
    ``accumulate(model, *batch, stats)`` is the E-step of one batch."""

    def step(model: ActivityModel) -> tuple[float, ActivityModel]:
        stats = _EmStats(model.n_states, config, marg_floor, joint_floor)
        ll = sum(float(accumulate(model, *batch, stats).sum()) for batch in batches)
        return ll, stats.m_step(model)

    return step


def train_activity_model(
    segments: list[tuple[np.ndarray, np.ndarray]],
    config: TrainConfig | None = None,
    terminal_slack: int = 0,
) -> tuple[ActivityModel, list[float]]:
    """Fit an activity model to ordered stream pairs by expectation-maximisation.

    Each segment is ``(fi, fj)`` with ``len(fi) <= len(fj)``.  The E-step runs
    exact forward-backward over the alignment-state lattice, one batched sweep
    per segment shape over the cells that can reach the read-out; the M-step
    updates entry/transition/exit rows, per-state advance probabilities
    (unless ``fix_advance`` pins them), and both emission mixture families.
    Returns the model and the training log-likelihood of every iteration,
    which never decreases.

    ``terminal_slack`` admits final alignments up to that many ``fi``
    observations short of the end, matching the near-diagonal mass the
    correlation metric reads; without it, equal-length stream pairs admit
    only all-advance paths and the advance probabilities degenerate to one.
    A pinned ``fix_advance`` trains without slack.
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

    joint_pools = _temporal_pools([np.concatenate([fi, fj[: len(fi)]], axis=1) for fi, fj in segs])
    marg_pools = _temporal_pools([fj for _, fj in segs])
    # per-dimension floors keyed to the pooled spread keep collapsed
    # components from spiking the density scale
    marg_floor = _dim_floor(np.concatenate([fj for _, fj in segs], axis=0))
    joint_floor = _dim_floor(np.concatenate(joint_pools, axis=0))
    joint, fb1 = _init_mixtures(joint_pools, config.seed, joint_floor)
    marginal, fb2 = _init_mixtures(marg_pools, config.seed + 7, marg_floor)

    entry, trans, exit_ = _initial_chain(float(np.mean([fj.shape[0] for _, fj in segs])))
    advance = np.full(N_STATES, 0.7 if config.fix_advance is None else float(config.fix_advance))
    model = ActivityModel(entry, trans, exit_, advance, marginal, joint, fb1 or fb2)
    slack = 0 if config.fix_advance is not None else terminal_slack
    accumulate = partial(_accumulate_batch, terminal_slack=slack)
    step = _em_step(_stack_by_shape(segs), accumulate, config, marg_floor, joint_floor)
    return run_em(model, step, config.max_iters)


class _EmStats:
    """Accumulated expected counts for one EM iteration."""

    def __init__(self, n: int, config: TrainConfig, marg_floor=VAR_FLOOR, joint_floor=VAR_FLOOR):
        self.config = config
        self.marg_floor = marg_floor
        self.joint_floor = joint_floor
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
        mw = np.concatenate(self.marg_w)
        advance = model.advance
        if advance is not None and cfg.fix_advance is None:
            # cells outside the band carry no advance posterior, so the weight
            # columns sum to the expected advance and hold counts
            adv = jw.sum(axis=0)
            tot = adv + mw.sum(axis=0)
            advance = advance.copy()
            mask = tot > 1e-10
            advance[mask] = adv[mask] / tot[mask]
            advance = np.clip(advance, EPS_MIN, 1.0 - EPS_MIN)
        joint = model.joint
        if self.joint_x:
            jx = np.concatenate(self.joint_x, axis=0)
            joint = tuple(
                _fit_weighted_mixture(model.joint[k], jx, jw[:, k], self.joint_floor) for k in range(n)
            )
        mx = np.concatenate(self.marg_x, axis=0)
        marginal = tuple(
            _fit_weighted_mixture(model.marginal[k], mx, mw[:, k], self.marg_floor) for k in range(n)
        )
        return ActivityModel(entry, trans, exit_, advance, marginal, joint, model.mixture_fallback)


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
) -> tuple[ActivityModel, list[float]]:
    """Fit a synchronous single-stream model (marginal emissions only);
    returns it with the training log-likelihood of every iteration."""
    config = config or TrainConfig()
    if not sequences:
        raise DataError("no training sequences")
    seqs = _subsample([np.atleast_2d(np.asarray(s, dtype=float)) for s in sequences], config.max_segments)
    pools = _temporal_pools(seqs)
    floor = _dim_floor(np.concatenate(seqs, axis=0))
    marginal, fallback = _init_mixtures(pools, config.seed + 3, floor)
    entry, trans, exit_ = _initial_chain(float(np.mean([s.shape[0] for s in seqs])))
    model = ActivityModel(entry, trans, exit_, None, marginal, None, fallback)
    step = _em_step(_stack_by_shape([(s,) for s in seqs]), _accumulate_sequences, config, floor)
    return run_em(model, step, config.max_iters)


def _usable_chunks(usable: np.ndarray, chunk: int) -> list[np.ndarray]:
    """Indices of the usable frames, split into runs at gaps and into pieces.

    ``usable`` is the conjunction over entities of an
    :class:`~groupact.features.EntityTrack` mask (index 0 is never usable).
    Pieces hold at most ``chunk`` frames; pieces shorter than ``MIN_CHUNK``
    are dropped.
    """
    edges = np.flatnonzero(np.diff(usable, append=False))
    out = []
    for a, b in zip(edges[::2] + 1, edges[1::2] + 1):
        for c0 in range(a, b, chunk):
            idx = np.arange(c0, min(c0 + chunk, b))
            if idx.size >= MIN_CHUNK:
                out.append(idx)
    return out


def _stream_chunks(
    tracks: TrackSet, ea, eb, start: int, end: int, chunk: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ordered feature-stream pairs over an interval, split at gaps and chunked."""
    track = feats.EntityTrack(tracks, [feats.as_entity(ea), feats.as_entity(eb)], max(start, 1) - 1, end)
    # the two cross pairs only, copied out: a kept segment holds no self-pair rows
    return [tuple(feats._pair_rows(track, idx)[[0, 1], [1, 0]])
            for idx in _usable_chunks(track.usable.all(axis=0), chunk)]


def _group_chunks(
    tracks: TrackSet, members, start: int, end: int, chunk: int
) -> list[np.ndarray]:
    """Group-feature sequences over an interval, split at gaps and chunked."""
    track = feats.member_tracks(tracks, members, max(start, 1) - 1, end)
    return [feats._group_rows(track, idx) for idx in _usable_chunks(track.usable.all(axis=0), chunk)]


def assemble_training_data(
    tracks: TrackSet, annotations: AnnotationSet, chunk: int
) -> tuple[dict[str, list], dict[str, list]]:
    """Ordered pair segments per activity, plus group-feature sequences.

    Symmetric records contribute every ordered member pair (both directions);
    inter-group records contribute cross pairs with the faster group's member
    as the subject stream (both directions again when the label is symmetric,
    e.g. mutual non-interaction).
    """
    pair_segments: dict[str, list] = {}
    group_sequences: dict[str, list] = {}
    for rec in annotations.sym_records():
        if rec.label != taxonomy.SINGLE and len(rec.members) >= 2:
            for a in rec.members:
                for b in rec.members:
                    if a == b:
                        continue
                    segs = _stream_chunks(tracks, a, b, rec.start, rec.end, chunk)
                    pair_segments.setdefault(rec.label, []).extend(segs)
        if taxonomy.is_grouping(rec.label):
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
                if taxonomy.is_symmetric(rec.label):
                    segs = _stream_chunks(tracks, j, i, rec.start, rec.end, chunk)
                    pair_segments.setdefault(rec.label, []).extend(segs)
    return pair_segments, group_sequences


def train_bank(
    tracks: TrackSet,
    annotations: AnnotationSet,
    config: TrainConfig | None = None,
    *,
    window: int,
    dt: int,
) -> ActivityModelBank:
    """Train one model per modelable activity plus group-feature models; the bank keeps the default thresholds."""
    check_window(window, dt)
    config = config or TrainConfig()
    chunk = config.chunk or window
    pair_segments, group_sequences = assemble_training_data(tracks, annotations, chunk)
    models = {}
    for idx, label in enumerate(taxonomy.MODELABLE_LABELS):
        segs = pair_segments.get(label, [])
        if not segs:
            raise DataError(f"no training data for activity {label!r}")
        cfg = replace(config, seed=config.seed + idx)
        models[label], _ = train_activity_model(segs, cfg, terminal_slack=dt)
    group_models = {}
    for idx, label in enumerate(taxonomy.GROUPING_LABELS):
        seqs = group_sequences.get(label, [])
        if seqs:
            cfg = replace(config, seed=config.seed + 1000 + idx)
            group_models[label], _ = train_hmm_model(seqs, cfg)
    return ActivityModelBank(models=models, group_models=group_models, window=window, dt=dt)


def _taxonomy_payload() -> dict:
    return {"levels": dict(sorted(taxonomy.LEVELS.items())), "non_grouping": sorted(taxonomy.NON_GROUPING)}


def _model_payloads(models: dict[str, ActivityModel]) -> dict:
    """Each model's payload under its key, headed by the key and the key's taxonomy level."""
    return {l: {"label": l, "kind": taxonomy.level(l), **models[l].to_payload()} for l in sorted(models)}


def bank_to_payload(bank: ActivityModelBank) -> dict:
    return {
        "taxonomy": _taxonomy_payload(),
        "config": {
            "window": bank.window, "dt": bank.dt,
            "tc": bank.tc, "to": bank.to, "tr": bank.tr,
        },
        "models": _model_payloads(bank.models),
        "group_models": _model_payloads(bank.group_models),
    }


def bank_from_payload(payload: dict) -> ActivityModelBank:
    """Rebuild a bank.  A taxonomy block other than the stock one, or a model
    whose ``label``/``kind`` differ from its key and the key's level, is a ValueError."""
    if payload["taxonomy"] != _taxonomy_payload():
        raise ValueError("model taxonomy differs from the stock nine-label taxonomy")
    cfg = payload["config"]
    bank = ActivityModelBank(
        models={l: ActivityModel.from_payload(p) for l, p in payload["models"].items()},
        group_models={l: ActivityModel.from_payload(p) for l, p in payload["group_models"].items()},
        window=int(cfg["window"]), dt=int(cfg["dt"]),
        tc=float(cfg["tc"]), to=float(cfg["to"]), tr=float(cfg["tr"]),
    )
    for l, p in (*payload["models"].items(), *payload["group_models"].items()):
        if (p["label"], p["kind"]) != (l, taxonomy.level(l)):
            raise ValueError(f"model under {l!r} says label {p['label']!r}, kind {p['kind']!r}")
    return bank


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
    """Emission rows of one frame ``u`` at the engine's slot of each ordered
    entity pair, on the last axis as the band sweep reads them.

    ``marg`` (A, n, slots) holds the marginal rows with the hold weight added,
    ``joint`` (A, D, n, slots) the band-joint rows of cells ``(u, h)``, whose
    source frame is ``u - h``, with the advance weight added.  Cells whose
    source frame precedes the window that computed the row are -inf.
    ``have`` marks the slots that hold a row.
    """

    def __init__(self, A: int, D: int, n: int, size: int):
        self.have = np.zeros(size, dtype=bool)
        self.marg = np.empty((A, n, size))
        self.joint = np.empty((A, D, n, size))

    def resize(self, size: int) -> None:
        """Grow to ``size`` slots; the new slots hold no row."""
        self.have, self.marg, self.joint = (
            np.concatenate([a, np.zeros(a.shape[:-1] + (size - a.shape[-1],), dtype=a.dtype)], axis=-1)
            for a in (self.have, self.marg, self.joint)
        )


class CorrelationEngine:
    """Batched correlation evaluation for a fixed bank over one track set.

    Computes each profile by stacking all activities (and many entity
    pairs) into single vectorised lattice sweeps, which is what makes
    per-frame clustering affordable.  A profile is a row of values in
    ``labels`` order; ``column`` maps a label to its index.
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
        # chain weights with the activity axis last, as the sweep's columns read them
        self._ent_cols = np.stack([_log(m.entry) for m in models], axis=-1)
        self._tr_cols = np.stack([_log(m.trans) for m in models], axis=-1)
        self._eps = np.stack([_log(m.advance) for m in models])
        self._hold = np.stack([_log(1.0 - m.advance) for m in models])
        self._marg = _BatchGmm([list(m.marginal) for m in models], self.obs_dim)
        self._joint = _BatchGmm([list(m.joint) for m in models], 2 * self.obs_dim)
        # band cells per step of a full window
        self._D = min(self.dt, self.window - 1) + 1
        # profiles of frame _t only: a lookup at another frame drops them
        self._t: int | None = None
        self._cache: dict[tuple, np.ndarray | None] = {}
        # emission rows of the frames [_t - window + 1, _t], each block at the
        # slot of each ordered entity pair; a pair that leaves every block
        # frees its slot
        self._blocks: dict[int, _FrameRows] = {}
        self._slots: dict[tuple, int] = {}
        self._free: list[int] = []
        self._size = 0  # slots per block

    def profile(self, subject, target, t: int) -> np.ndarray | None:
        key = (feats.as_entity(subject), feats.as_entity(target))
        if t != self._t or key not in self._cache:
            self.profiles([key], t)
        return self._cache[key]

    def profiles(self, items: list[tuple], t: int) -> dict[tuple, np.ndarray | None]:
        """Profiles for many (subject, target) entity pairs at one frame.

        Each is a read-only row of values in ``labels`` order, or None when
        no usable window of length >= 2 ends at ``t``.  A call whose pairs
        are all cached at ``t`` reads the cache and nothing else.  The
        windows of the uncached pairs with a multi-member entity are built
        together, in one :func:`~groupact.features.pair_window_batch`.
        """
        as_entity, cache = feats.as_entity, self._cache
        keys = [(as_entity(a), as_entity(b)) for a, b in items]
        if t != self._t:
            cache.clear()
            if self._t is not None and t < self._t:
                # an earlier window may start earlier and need more joint cells
                self._blocks.clear()
            self._t = t
            for u in [u for u in self._blocks if not t - self.window < u <= t]:
                del self._blocks[u]
            self._free_slots()
        todo = [key for key in keys if key not in cache]
        if todo:
            self._compute(todo, t)
        return {key: cache[key] for key in keys}

    def _compute(self, todo: list[tuple], t: int) -> None:
        """Cache the profiles of the uncached pairs ``todo`` at frame ``t``."""
        keys, windows = [], []
        with feats.pair_window_batch(self.tracks, todo, t, self.window):
            for key in todo:
                pw = feats.pair_feature_windows(self.tracks, *key, t, self.window)
                if pw is None:
                    self._cache[key] = None
                    continue
                keys.append(key)
                windows.append(pw)
        if not keys:
            return
        lengths = np.array([fa.shape[0] for fa, _ in windows])
        slots = self._emission_rows(keys, windows, lengths, t)
        for T in np.unique(lengths).tolist():
            sel = np.flatnonzero(lengths == T)
            vals = self._window_profiles(slots[sel], T, t)
            vals.flags.writeable = False
            self._cache.update(zip([keys[j] for j in sel.tolist()], vals))

    def _slot_index(self, keys: list[tuple]) -> np.ndarray:
        """The slot of each key, shared by every frame block; a key without
        one takes a freed slot or a new one."""
        slots = self._slots
        out = np.fromiter(map(slots.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
        for i in np.flatnonzero(out < 0).tolist():
            key = keys[i]
            if key not in slots:
                slots[key] = self._free.pop() if self._free else len(slots)
            out[i] = slots[key]
        size = self._size
        if len(slots) > size:
            # grow by a quarter at a time: after a frame's first call the
            # rows of a few new entities at most arrive per call
            self._size = max(len(slots), size * 5 // 4)
            for block in self._blocks.values():
                block.resize(self._size)
        return out

    def _free_slots(self) -> None:
        """Free the slots of the keys that no frame block holds a row of."""
        held = np.zeros(self._size, dtype=bool)
        for block in self._blocks.values():
            held |= block.have
        held = held.tolist()
        for key in [key for key, slot in self._slots.items() if not held[slot]]:
            self._free.append(self._slots.pop(key))

    def _emission_rows(self, keys, windows, lengths: np.ndarray, t: int) -> np.ndarray:
        """Slot of every item in the frame blocks, shape (I,).

        Computes the rows that a block lacks for frames inside the item's
        window, one frame's rows per batched density call.  Frames ascend
        between block clears, so a window never starts before that of a
        stored row and the row has every cell the window reaches.
        """
        D = self._D
        starts = t + 1 - lengths
        slots = self._slot_index(keys)
        flat = None
        for u in range(t - self.window + 1, t + 1):
            block = self._blocks.get(u)
            if block is None:
                block = self._blocks[u] = _FrameRows(len(self.labels), D, self.n_states, self._size)
            miss = np.flatnonzero(~block.have[slots] & (u >= starts))
            if miss.size:
                if flat is None:
                    fa = np.concatenate([w[0] for w in windows])
                    fb = np.concatenate([w[1] for w in windows])
                    flat = fa, fb, np.cumsum(lengths) - lengths - starts
                # cells from u back to the window start
                cells = np.minimum(D, u + 1 - starts[miss])
                me, je = self._frame_emissions(*flat, miss, u, cells)
                at = slots[miss]
                block.marg[..., at] = me
                block.joint[..., at] = je
                block.have[at] = True
        return slots

    def _frame_emissions(self, fa, fb, base, items: np.ndarray, u: int, cells: np.ndarray):
        """Marginal (A, n, items) and band-joint (A, D, n, items) rows at frame ``u`` of ``items``.

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
        return me.transpose(1, 2, 0), je.transpose(2, 1, 3, 0)

    def _window_profiles(self, slots: np.ndarray, T: int, t: int) -> np.ndarray:
        """Profiles of I windows of ``T`` frames, shape (I, A).

        A max-plus sweep of every (activity, item) cell runs first, and
        :func:`_open_cells` reads from its bound which cells can reach a
        profile.  An item with one open cell is one-hot there;
        :meth:`_window_masses` runs the log-space sweep on the open cells of
        the rest, and their closed cells get mass -inf.
        """
        A, I = len(self.labels), slots.size
        act, item = np.indices((A, I)).reshape(2, -1)
        V = self._sweep(slots, T, t, np.maximum, act, item).max(axis=(0, 1)).reshape(A, I)
        cells = _open_cells(V, T, self.n_states)
        one = cells.sum(axis=0) == 1
        vals = np.zeros((I, A))
        vals[one, cells[:, one].argmax(axis=0)] = 1.0
        rest = np.flatnonzero(~one)
        if rest.size:
            act, item = np.nonzero(cells[:, rest])
            masses = np.full((rest.size, A), -np.inf)
            masses[item, act] = self._window_masses(slots[rest], T, t, act, item)
            vals[rest] = np.exp(masses - logsumexp(masses, axis=1)[:, None])
        return vals

    def _window_masses(self, slots: np.ndarray, T: int, t: int, act, item) -> np.ndarray:
        """Log lattice masses near the diagonal of the (``act[c]``, ``item[c]``)
        cells of I windows of ``T`` frames, shape (C,).

        The read-out keeps only final cells with ``s >= max(1, T - dt)``,
        i.e. hold count ``h < D = min(dt, T-1) + 1``, so the sweep runs on
        the band of :func:`_band_forward`.
        """
        la = np.moveaxis(self._sweep(slots, T, t, np.logaddexp, act, item), -1, 0)  # (C, D, n)
        # descending h is ascending s, the summation order of a full-lattice read-out
        return logsumexp(la[:, ::-1, :].reshape(la.shape[0], -1), axis=1)

    def _sweep(self, slots: np.ndarray, T: int, t: int, add, act, item) -> np.ndarray:
        """Mass leaving the last band step of the (``act[c]``, ``item[c]``)
        cells of I windows of ``T`` frames, one column per cell, (D, n, C).

        ``slots`` (I,) locates the items in the frame blocks.  Each step's
        weights are gathered as the sweep reaches it, so no array spans the
        ``T`` steps.
        """
        D, n, size = min(self.dt, T - 1) + 1, self.n_states, self._size
        at = slots[item]
        # offsets of each column's cells in every block's flat marg and joint
        marg = (act * n + np.arange(n)[:, None]) * size + at
        joint = ((act * self._D + np.arange(D)[:, None, None]) * n + np.arange(n)[:, None]) * size + at
        blocks = [self._blocks[u] for u in range(t - T + 1, t + 1)]
        # cells h > k, whose source frame precedes the window start, may
        # hold a longer window's values; the sweep never enters them
        ae = (block.joint.take(joint) for block in blocks)
        hm = (block.marg.take(marg) for block in blocks)
        ent, tr = (w.take(act, axis=-1) for w in (self._ent_cols, self._tr_cols))
        for _, la in _band_forward(ent, tr, ae, hm, add):
            pass
        return la

    def group_score(self, label: str, members, t: int) -> float | None:
        """Windowed group-feature likelihood under an activity's group model."""
        model = self.bank.group_models.get(label)
        if model is None:
            return None
        win = feats.group_feature_window(self.tracks, members, t, self.window)
        if win is None:
            return None
        return hmm_group_likelihood(model, win)
