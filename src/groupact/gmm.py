"""Diagonal-covariance Gaussian mixtures with deterministic EM fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VAR_FLOOR = 1e-6
EM_MAX_ITERS = 200
KMEANS_ITERS = 50  # Lloyd rounds that seed a mixture fit
EM_TOL = 1e-4  # relative log-likelihood improvement below which EM stops
_LOG_2PI = float(np.log(2.0 * np.pi))


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray | float:
    """log(sum(exp(a))) along ``axis``, safe for rows that are all -inf."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class GaussianMixture:
    """A mixture of axis-aligned Gaussians.

    ``weights`` has shape (k,), ``means`` and ``variances`` shape (k, d).
    Weights are positive and sum to one; every variance sits at or above
    the numerical floor so densities stay finite.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        var = np.asarray(self.variances, dtype=float)
        if mu.ndim != 2 or var.shape != mu.shape or w.shape != (mu.shape[0],):
            raise ValueError("inconsistent mixture parameter shapes")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(var))):
            raise ValueError("mixture parameters must be finite")
        if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("mixture weights must be positive and sum to 1")
        if np.any(var < VAR_FLOOR * (1.0 - 1e-9)):
            raise ValueError(f"variances below floor {VAR_FLOOR}")
        for arr in (w, mu, var):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def component_log_density(self, x: np.ndarray) -> np.ndarray:
        """Per-component log densities, shape (n, k) for x of shape (n, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError(f"dimension mismatch: got {x.shape[1]}, expected {self.dim}")
        diff = x[:, None, :] - self.means[None, :, :]
        quad = np.sum(diff * diff / self.variances[None, :, :], axis=2)
        norm = np.sum(np.log(self.variances), axis=1) + self.dim * _LOG_2PI
        return -0.5 * (quad + norm[None, :])

    def log_density(self, x: np.ndarray) -> np.ndarray | float:
        """Log mixture density at ``x`` ((d,) or (n, d)); scalar for one point."""
        single = np.asarray(x).ndim == 1
        comp = self.component_log_density(x) + np.log(self.weights)[None, :]
        out = logsumexp(comp, axis=1)
        if single:
            return float(out[0]) if np.ndim(out) else float(out)
        return out

    def to_payload(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "GaussianMixture":
        return cls(
            weights=np.asarray(payload["weights"], dtype=float),
            means=np.asarray(payload["means"], dtype=float),
            variances=np.asarray(payload["variances"], dtype=float),
        )


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain Lloyd iteration; deterministic for a given generator state."""
    n = x.shape[0]
    idx = rng.choice(n, size=k, replace=False)
    centers = x[idx].copy()
    assign = np.zeros(n, dtype=int)
    for _ in range(KMEANS_ITERS):
        d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        for j in range(k):
            mask = new_assign == j
            if not np.any(mask):
                far = int(np.argmax(np.min(d2, axis=1)))
                centers[j] = x[far]
                new_assign[far] = j
            else:
                centers[j] = x[mask].mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def run_em(model, step, max_iters: int) -> tuple[object, list[float]]:
    """EM from ``model``, where ``step(model)`` gives its log-likelihood and
    its re-estimate, until the relative gain falls below ``EM_TOL``; returns
    the last re-estimate and the log-likelihood of every step."""
    history: list[float] = []
    prev = -np.inf
    for _ in range(max_iters):
        ll, model = step(model)
        history.append(ll)
        if prev > -np.inf and ll - prev < EM_TOL * max(1.0, abs(prev)):
            break
        prev = ll
    return model, history


def refit(x: np.ndarray, r: np.ndarray, mass: np.ndarray, var_floor) -> GaussianMixture:
    """Weighted M-step: component j fits the rows of ``x`` weighted by ``r[:, j]``, which sum to ``mass[j]``."""
    weights = mass / mass.sum()
    means = (r.T @ x) / mass[:, None]
    sq = (r.T @ (x * x)) / mass[:, None]
    variances = np.maximum(sq - means * means, var_floor)
    return GaussianMixture(weights, means, variances)


def fit_em(
    samples: np.ndarray,
    k: int,
    seed: int,
    var_floor: float = VAR_FLOOR,
) -> tuple[GaussianMixture, list[float]]:
    """Fit a k-component diagonal mixture by EM; returns it with the
    log-likelihood of every iteration and of the result.

    Initialisation is seeded k-means, so identical inputs give bitwise
    identical parameters.  The per-iteration log-likelihood is
    non-decreasing; iteration stops when the relative improvement drops
    below ``EM_TOL`` or after ``EM_MAX_ITERS`` rounds.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    n, d = x.shape
    if n < k:
        raise ValueError(f"need at least {k} samples, got {n}")
    if k == 1:
        mean = x.mean(axis=0, keepdims=True)
        var = np.maximum(x.var(axis=0, keepdims=True), var_floor)
        gm = GaussianMixture(np.array([1.0]), mean, var)
        return gm, [float(np.sum(gm.log_density(x)))]

    rng = np.random.default_rng(seed)
    centers = _kmeans(x, k, rng)
    d2 = np.sum((x[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    assign = np.argmin(d2, axis=1)
    weights = np.zeros(k)
    variances = np.empty((k, d))
    for j in range(k):
        mask = assign == j
        weights[j] = max(mask.sum(), 1.0)
        pts = x[mask] if np.any(mask) else x
        variances[j] = np.maximum(pts.var(axis=0), var_floor)
    weights /= weights.sum()

    def step(gm: GaussianMixture) -> tuple[float, GaussianMixture]:
        comp = gm.component_log_density(x) + np.log(gm.weights)[None, :]
        per_point = logsumexp(comp, axis=1)
        resp = np.exp(comp - per_point[:, None])
        return float(np.sum(per_point)), refit(x, resp, np.maximum(resp.sum(axis=0), 1e-12), var_floor)

    gm, history = run_em(GaussianMixture(weights, centers, variances), step, EM_MAX_ITERS)
    history.append(float(np.sum(gm.log_density(x))))
    return gm, history
