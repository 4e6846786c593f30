"""The three classifiers: Multinomial Naive Bayes on count vectors, and
one-vs-rest logistic / hinge linear models on TF-IDF vectors.

All training is deterministic. The SGD classifier shuffles with a PCG64
generator seeded from the training config, so a fixed seed reproduces
bit-identical weights on a given numpy and BLAS build. Its four
one-vs-rest subproblems can run concurrently on a process pool that
sgd_fit opens, with the same result, and its step loop keeps BLAS threads
out of the fit, so the weights do not depend on the BLAS thread count
either. Each step's score is still one short BLAS ddot, whose kernel may
round differently from a sum in storage order; the weights use the score
only through the margin test, where that has not changed a weight (see
_sgd_binary).

The logistic classifier is fitted by LIBLINEAR's trust-region Newton
method, written here with numpy reductions in place of BLAS calls, so its
weights do not depend on the thread count either. It is the one caller of
scipy: its hundreds of sparse products per class run faster in
scipy.sparse, which it imports when called. Every other path works on the
features module's CSR kernels, so NB and SGD training, eval and predict
never pay the fifth of a second that importing scipy.sparse takes.

So no fit gains from BLAS threads, and the CLI starts OpenBLAS with one
thread unless OPENBLAS_NUM_THREADS is set (see cli); pool workers inherit
that setting. A preset count leaves the weights unchanged.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import ClassVar

import numpy as np

from .corpus import Label
from .errors import DimensionMismatchError, TrainingError
from .features import CSR, class_sums, row_dots, stack

N_CLASSES = len(Label)

# Below this many training documents a pool costs more than it saves.
PARALLEL_MIN_DOCS = 32

# A CSR matrix with one row per document, or a list of matrices whose rows
# are stacked once.
FeatureRows = CSR | list[CSR]

# LIBLINEAR's trust-region rules: a step is accepted when the actual
# reduction exceeds ETA[0] times the predicted one; the ratio picks how the
# radius scales (SIGMA).
ETA = (1e-4, 0.25, 0.75)
SIGMA = (0.25, 0.5, 4.0)

KIND_NB = "nb"
KIND_LOGISTIC = "logistic"
KIND_HINGE = "hinge"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the linear models.

    The hinge classifier uses the step-size schedule
    eta_t = 1 / (sgd_alpha * (t0 + t)) with eta_0 = sgd_alpha**-0.25 and
    t0 = 1 / (sgd_alpha * eta_0); at the default sgd_alpha = 1e-4 that is
    eta_0 = 10 and t0 = 1000.
    """

    lr_C: float = 100.0
    lr_tol: float = 1e-4
    lr_max_iter: int = 100
    sgd_alpha: float = 1e-4
    sgd_epochs: int = 1000
    sgd_tol: float = 1e-3
    seed: int = 42

    def __post_init__(self):
        for name in ("lr_C", "lr_tol", "sgd_alpha", "sgd_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.lr_max_iter < 1 or self.sgd_epochs < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class NbModel:
    """Laplace-smoothed multinomial model. Rows of exp(feature_log_prob)
    sum to 1; classes absent from training get a -inf prior."""

    class_log_prior: np.ndarray  # (4,)
    feature_log_prob: np.ndarray  # (4, V)
    alpha: float
    kind: ClassVar[str] = KIND_NB


@dataclass(frozen=True)
class LinearModel:
    """One-vs-rest linear decision model (logistic or hinge)."""

    weights: np.ndarray  # (4, V)
    bias: np.ndarray  # (4,)
    kind: str
    converged: bool = True


def nb_fit(X: FeatureRows, y: list[Label], alpha: float = 1.0) -> NbModel:
    """Estimate priors and smoothed per-class term distributions.

    feature_log_prob[c][t] = ln((T_ct + alpha) / (sum_t' T_ct' + alpha*V))
    where T_ct is the total count of term t over class-c documents.
    """
    X, labels = _training_data(X, y)
    if not 0 < alpha < math.inf:
        raise TrainingError(f"smoothing alpha must be positive and finite, got {alpha}")
    n, dim = X.shape

    # Each class's rows are added in document order: exact for counts,
    # order-stable for other weights.
    term_counts = class_sums(X, labels, N_CLASSES)
    doc_counts = np.bincount(labels, minlength=N_CLASSES).astype(np.float64)

    with np.errstate(divide="ignore"):
        class_log_prior = np.log(doc_counts / n)
    if dim > 0:
        smoothed = term_counts + alpha
        # A huge alpha overflows the row sums; the finite check rejects it.
        with np.errstate(over="ignore"):
            feature_log_prob = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
    else:
        feature_log_prob = np.zeros((N_CLASSES, 0))
    if not np.all(np.isfinite(feature_log_prob)):
        raise TrainingError(f"smoothing alpha {alpha} gives non-finite log probabilities")
    return NbModel(
        class_log_prior=class_log_prior,
        feature_log_prob=feature_log_prob,
        alpha=float(alpha),
    )


def decision_scores(model: NbModel | LinearModel, X: FeatureRows) -> np.ndarray:
    """(n, 4) per-class scores, one row per row of X: the NB log posterior
    (prior + sum_t x_t * log theta) or the linear w_c . x + b_c."""
    if isinstance(X, list):
        X = stack(X)
    if isinstance(model, NbModel):
        weights, offsets = model.feature_log_prob, model.class_log_prior
    else:
        weights, offsets = model.weights, model.bias
    if X.shape[1] != weights.shape[1]:
        raise DimensionMismatchError(f"{X.shape[1]} feature columns != model dim {weights.shape[1]}")
    return row_dots(X, weights) + offsets


def predict_labels(scores: np.ndarray) -> list[Label]:
    """Row-wise argmax with ties broken toward the lowest label code.

    Raises ValueError on a NaN score or on a row with no finite score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != N_CLASSES:
        raise ValueError(f"expected rows of {N_CLASSES} scores, got shape {scores.shape}")
    if np.any(np.isnan(scores)):
        raise ValueError("NaN score")
    if not np.all(np.any(np.isfinite(scores), axis=1)):
        raise ValueError("all class scores are -inf; no class is predictable")
    return [Label(int(i)) for i in np.argmax(scores, axis=1)]


def logistic_objective(z, X, y_pm, C):
    """Regularized logistic loss and gradient for one binary subproblem.

    z is [w..., b]; the objective is 0.5*||w||^2 + C * sum ln(1+exp(-y*s))
    with s = X@w + b and y in {-1, +1}. The bias is unregularized.
    """
    X = _scipy_rows(X)
    f, margins = _logistic_loss(z, X, y_pm, C)
    grad, _ = _logistic_gradient(z, X, y_pm, C, margins)
    return f, grad


def logistic_hessp(z, p, X, y_pm, C):
    """Exact Hessian of logistic_objective at z times the vector p.

    With q = X@p_w + p_b and D = C*sigma*(1-sigma), sigma = expit(-y*s),
    H p = [p_w + X.T@(D*q), sum(D*q)].
    """
    X = _scipy_rows(X)
    return _weighted_hessp(_hessian_weights(z, X, y_pm, C), p, X)


def _logistic_loss(z, X, y_pm, C):
    """(objective, margins -y*s) at z."""
    w, b = z[:-1], z[-1]
    margins = -y_pm * (X @ w + b)
    f = 0.5 * _dot(w, w) + C * float(np.sum(np.logaddexp(0.0, margins)))
    return f, margins


def _logistic_gradient(z, X, y_pm, C, margins):
    """(gradient, D) at z from its margins; D = C*sigma*(1-sigma) shares
    sigma with the gradient."""
    sigma = _expit(margins)
    coef = C * (-y_pm) * sigma
    grad = np.empty_like(z)
    grad[:-1] = z[:-1] + X.T @ coef
    grad[-1] = float(np.sum(coef))
    return grad, C * sigma * (1.0 - sigma)


def _hessian_weights(z, X, y_pm, C):
    """D = C*sigma*(1-sigma) at z."""
    w, b = z[:-1], z[-1]
    sigma = _expit(-y_pm * (X @ w + b))
    return C * sigma * (1.0 - sigma)


def _weighted_hessp(d, p, X):
    dq = d * (X @ p[:-1] + p[-1])
    hp = np.empty_like(p)
    hp[:-1] = p[:-1] + X.T @ dq
    hp[-1] = float(np.sum(dq))
    return hp


def _expit(x):
    """1 / (1 + exp(-x)), without overflow."""
    return np.exp(-np.logaddexp(0.0, -x))


def _dot(a, b) -> float:
    # np.dot would call BLAS, which splits long sums across its threads.
    return float(np.add.reduce(a * b))


def _scipy_rows(X):
    """X as a scipy csr_matrix over the same arrays, for the LR products."""
    import scipy.sparse

    if scipy.sparse.issparse(X):
        return X
    return scipy.sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape, copy=False)


def lr_fit(X: FeatureRows, y: list[Label], cfg: TrainConfig) -> LinearModel:
    """Fit four one-vs-rest L2-regularized logistic classifiers.

    Each subproblem is minimized by trust-region Newton (see
    _minimize_logistic) until the gradient max-norm drops to lr_tol or
    lr_max_iter Newton iterations elapse; hitting the limit only clears
    the converged flag.
    """
    X_csr, labels = _check_training_inputs(X, y)
    X_csr = _scipy_rows(X_csr)
    dim = X_csr.shape[1]

    weights = np.zeros((N_CLASSES, dim))
    bias = np.zeros(N_CLASSES)
    converged = True
    for c in range(N_CLASSES):
        y_pm = np.where(labels == c, 1.0, -1.0)
        z, ok = _minimize_logistic(X_csr, y_pm, cfg)
        weights[c] = z[:-1]
        bias[c] = z[-1]
        converged = converged and ok
    _check_finite(weights, bias)
    return LinearModel(weights=weights, bias=bias, kind=KIND_LOGISTIC, converged=converged)


@np.errstate(over="ignore", invalid="ignore")
def _minimize_logistic(X, y_pm, cfg: TrainConfig, callback=None):
    """(z, converged): logistic_objective minimized from z = 0 by TRON.

    Trust-region Newton as in LIBLINEAR (Lin, Weng & Keerthi, JMLR 2008):
    each iteration solves the Newton system inside the radius by Steihaug
    CG, accepts the step if it achieves enough of the predicted reduction,
    and rescales the radius by how well the quadratic model predicted.
    Stops once max|grad| <= lr_tol, after lr_max_iter iterations, or (not
    converged) once a later iteration rejects its step and keeps the
    radius, since every iteration after it would repeat it exactly;
    callback(z) runs after each iteration.

    Raises TrainingError once the objective, the gradient or the radius is
    not finite, or the radius is 0: an lr_C or lr_tol far from the data's
    scale. That check, not numpy's overflow warnings, reports such a fit.
    """
    X = _scipy_rows(X)
    C = cfg.lr_C
    z = np.zeros(X.shape[1] + 1)
    f, margins = _logistic_loss(z, X, y_pm, C)
    grad, d = _logistic_gradient(z, X, y_pm, C, margins)
    radius = math.sqrt(_dot(grad, grad))
    for k in range(cfg.lr_max_iter):
        grad_max = np.max(np.abs(grad))
        if grad_max <= cfg.lr_tol:
            return z, True
        if not (math.isfinite(f) and math.isfinite(grad_max) and 0 < radius < math.inf):
            raise TrainingError(
                f"lr_C {C} with lr_tol {cfg.lr_tol} takes the LR fit outside the floating-point range"
            )
        cg_radius = radius
        s, r = _steihaug_cg(grad, lambda p: _weighted_hessp(d, p, X), radius)
        f_new, margins = _logistic_loss(z + s, X, y_pm, C)
        gs = _dot(grad, s)
        predicted = -0.5 * (gs - _dot(s, r))
        actual = f - f_new
        s_norm = math.sqrt(_dot(s, s))
        if k == 0:
            radius = min(radius, s_norm)
        # Step multiple minimizing the quadratic through f, gs and f_new.
        curvature = f_new - f - gs
        alpha = SIGMA[2] if curvature <= 0 else max(SIGMA[0], -0.5 * gs / curvature)
        if actual < ETA[0] * predicted:
            radius = min(max(alpha, SIGMA[0]) * s_norm, SIGMA[1] * radius)
        elif actual < ETA[1] * predicted:
            radius = max(SIGMA[0] * radius, min(alpha * s_norm, SIGMA[1] * radius))
        elif actual < ETA[2] * predicted:
            radius = max(SIGMA[0] * radius, min(alpha * s_norm, SIGMA[2] * radius))
        else:
            radius = max(radius, min(alpha * s_norm, SIGMA[2] * radius))
        accepted = actual > ETA[0] * predicted
        if accepted:
            z, f = z + s, f_new
            grad, d = _logistic_gradient(z, X, y_pm, C, margins)
        if callback is not None:
            callback(z)
        # Iteration 0 alone clips the radius to its step, so only a later
        # iteration can be a fixed point.
        if not accepted and radius == cg_radius and k > 0:
            return z, False
    return z, bool(np.max(np.abs(grad)) <= cfg.lr_tol)


def _steihaug_cg(g, hessp, radius):
    """(s, r): CG on H s = -g from s = 0, stopped when the residual
    r = -g - H s has norm <= 0.1*||g||, or on the trust-region boundary
    when a step would leave it or meets curvature that is not positive and
    finite. Where the boundary step underflows, (s, r) is returned as is."""
    s = np.zeros_like(g)
    r = -g
    d = r.copy()
    rr = _dot(r, r)
    tol = 0.1 * math.sqrt(rr)
    while True:
        hd = hessp(d)
        dhd = _dot(d, hd)
        if 0 < dhd < math.inf:
            alpha = rr / dhd
            s_next = s + alpha * d
            if math.sqrt(_dot(s_next, s_next)) <= radius:
                s, r = s_next, r - alpha * hd
                rr_next = _dot(r, r)
                if math.sqrt(rr_next) <= tol:
                    return s, r
                d = r + (rr_next / rr) * d
                rr = rr_next
                continue
        # tau >= 0 with ||s + tau*d|| = radius
        sd, ss, dd = _dot(s, d), _dot(s, s), _dot(d, d)
        gap = radius * radius - ss
        root = math.sqrt(sd * sd + dd * gap)
        if not (dd > 0 and root > 0):
            return s, r
        tau = gap / (sd + root) if sd >= 0 else (root - sd) / dd
        return s + tau * d, r - tau * hd


def default_workers() -> int:
    return os.cpu_count() or 1


def sgd_fit(X: FeatureRows, y: list[Label], cfg: TrainConfig, workers: int = 1) -> LinearModel:
    """Fit four one-vs-rest hinge classifiers by per-example SGD.

    Per example: s = w.x + b; the L2 penalty (sgd_alpha/2)*||w||^2 decays w
    every step and a margin violation (y*s < 1) adds eta*y*x to w and
    eta*y to b. Shuffling draws from one PCG64 stream per subproblem,
    spawned from cfg.seed. Training stops early once the mean epoch
    objective improves by less than sgd_tol.

    The four subproblems share nothing. With workers > 1 and at least
    PARALLEL_MIN_DOCS documents they run on min(workers, cores, N_CLASSES)
    processes, as a forked pool starts them all at its first task. The
    initializer hands each process the problem once (under fork, without a
    copy), so a task carries only a class index and its seed. Results are
    gathered in class order and equal the serial fit bit for bit.
    """
    X_csr, labels = _check_training_inputs(X, y)
    seeds = np.random.SeedSequence(cfg.seed).spawn(N_CLASSES)
    workers = min(workers, default_workers(), N_CLASSES)
    if workers <= 1 or X_csr.shape[0] < PARALLEL_MIN_DOCS:
        results = list(map(partial(_sgd_binary, X_csr, labels, cfg), range(N_CLASSES), seeds))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled fit pays its import

        problem = (X_csr, labels, cfg)
        with ProcessPoolExecutor(workers, initializer=_set_sgd_problem, initargs=problem) as pool:
            results = list(pool.map(_sgd_pooled_class, range(N_CLASSES), seeds))

    weights = np.stack([w for w, _, _ in results])
    bias = np.array([b for _, b, _ in results])
    converged = all(stopped for _, _, stopped in results)
    _check_finite(weights, bias)
    return LinearModel(weights=weights, bias=bias, kind=KIND_HINGE, converged=converged)


_sgd_problem: tuple = ()  # (X, labels, cfg) in a pool process; see sgd_fit


def _set_sgd_problem(*problem):
    global _sgd_problem
    _sgd_problem = problem


def _sgd_pooled_class(c, seed):
    return _sgd_binary(*_sgd_problem, c, seed)


def _sgd_binary(X, labels, cfg, c, seed):
    """(w, b, stopped) for class c against the rest, shuffled by seed.

    The step loop runs on Python floats and lists. Its one BLAS call is a
    ddot over one row's terms, far below OpenBLAS's threading threshold,
    so the thread count cannot change it; the once-per-epoch ||w||^2 of
    length V uses a numpy reduction instead of a ddot, which for V above
    10 000 would wake a BLAS helper thread that then spins for the rest of
    the fit. That term only feeds the stopping test.

    The ddot's kernel still matters: under OpenBLAS 0.3.31 (DYNAMIC_ARCH)
    it differs in the last bit from a storage-order sum for about a fifth
    of random 3-term rows. The weights read the score s only in the test
    y*s < 1, and replacing the ddot with a storage-order sum left every
    weight bit-identical on both benchmark corpora (seeds 7 and 23). A
    BLAS build whose rounding flips that test would change the weights.
    """
    n, dim = X.shape
    y_pm = np.where(labels == c, 1.0, -1.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    alpha = cfg.sgd_alpha
    eta0 = alpha**-0.25
    t0 = 1.0 / (alpha * eta0)
    w = np.zeros(dim)
    scale = 1.0  # w_effective = scale * w; keeps the per-step decay O(nnz)
    b = 0.0
    t = 0.0
    prev_loss = None
    indptr, cols, data = X.indptr.tolist(), X.indices, X.data
    labels = y_pm.tolist()

    for _ in range(cfg.sgd_epochs):
        for i in rng.permutation(n).tolist():
            lo, hi = indptr[i], indptr[i + 1]
            idx, val = cols[lo:hi], data[lo:hi]
            wi = w[idx]
            s = scale * float(wi.dot(val)) + b
            eta = 1.0 / (alpha * (t0 + t))
            scale *= max(0.0, 1.0 - eta * alpha)
            if scale < 1e-9:
                w *= scale
                scale = 1.0
                wi = w[idx]
            yi = labels[i]
            if yi * s < 1.0:
                w[idx] = wi + (eta * yi / scale) * val
                b += eta * yi
            t += 1.0

        w_eff = scale * w
        margins = 1.0 - y_pm * (row_dots(X, w_eff) + b)
        penalty = float(np.add.reduce(w_eff * w_eff))
        loss = float(np.mean(np.maximum(0.0, margins))) + 0.5 * alpha * penalty
        if prev_loss is not None and prev_loss - loss < cfg.sgd_tol:
            return w_eff, b, True
        prev_loss = loss
    return scale * w, b, False


def _training_data(X: FeatureRows, y: list[Label]) -> tuple[CSR, np.ndarray]:
    """(matrix, label codes); a list of matrices is stacked once."""
    if isinstance(X, list):
        if not X:
            raise TrainingError("empty training set")
        X = stack(X)
    if X.shape[0] == 0:
        raise TrainingError("empty training set")
    if X.shape[0] != len(y):
        raise TrainingError(f"{X.shape[0]} feature rows but {len(y)} labels")
    labels = np.fromiter((int(label) for label in y), dtype=np.int64, count=len(y))
    return X, labels


def _check_training_inputs(X: FeatureRows, y: list[Label]) -> tuple[CSR, np.ndarray]:
    X, labels = _training_data(X, y)
    if np.unique(labels).size < 2:
        raise TrainingError("training data contains a single class")
    return X, labels


def _check_finite(weights: np.ndarray, bias: np.ndarray):
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
        raise TrainingError("training produced non-finite parameters")
