"""The three classifiers: Multinomial Naive Bayes on count vectors, and
one-vs-rest logistic / hinge linear models on TF-IDF vectors.

All three are a LinearModel, scored by decision_scores as X @ W.T + b.
Multinomial NB is linear in the term counts (Rennie et al., ICML 2003):
its weights are the log term probabilities log theta_ct and its bias the
log class prior, -inf for a class absent from training.

All training is deterministic. LR and SGD fit their four one-vs-rest
subproblems through one driver, _one_vs_rest. The SGD classifier shuffles
with a PCG64 generator seeded from the training config, so a fixed seed
reproduces bit-identical weights on a given numpy and BLAS build. Its
subproblems can run concurrently on a process pool that the driver opens,
with the same result, and its step loop keeps BLAS threads out of the
fit, so the weights do not depend on the BLAS thread count either. Each
step's score is still one short BLAS ddot, whose kernel may round
differently from a sum in storage order; the weights use the score only
through the margin test, where that has not changed a weight (see
_sgd_binary).

The logistic classifier is fitted by LIBLINEAR's trust-region Newton
method, written here with numpy reductions in place of BLAS calls, so its
weights do not depend on the thread count either. Its hundreds of sparse
products per class, like every score, the SGD epoch objective and NB's
class sums, are the features module's row_dots and column_dots: scipy's
compiled sparsetools, loaded without importing the scipy package.

So no fit gains from BLAS threads, and the CLI starts OpenBLAS with one
thread unless OPENBLAS_NUM_THREADS is set (see cli); pool workers inherit
that setting. A preset count leaves the weights unchanged.

TrainConfig and the kind names are defined in settings, which loads no
numpy, so the CLI can build its parser without this module; they are
importable from here as well.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .corpus import Label
from .errors import ScoreError, TrainingError
from .features import CSR, column_dots, row_dots, stack
from .settings import KIND_HINGE, KIND_LOGISTIC, KIND_NB, TrainConfig

N_CLASSES = len(Label)
_LABELS = tuple(Label)  # by code

# Below this many training documents a pool costs more than it saves. On a
# 2-core host, whole train --model sgd processes with and without the pool
# tied at about 2,500 documents, of 400 tokens or of 20; the pool won from
# 3,792 articles and 5,056 claims on.
PARALLEL_MIN_DOCS = 3000

# A CSR matrix with one row per document, or a list of matrices whose rows
# are stacked once.
FeatureRows = CSR | list[CSR]

# LIBLINEAR's trust-region rules: a step is accepted when the actual
# reduction exceeds ETA[0] times the predicted one; the ratio picks how the
# radius scales (SIGMA).
ETA = (1e-4, 0.25, 0.75)
SIGMA = (0.25, 0.5, 4.0)


@dataclass(frozen=True)
class LinearModel:
    """Per-class weights and bias: one-vs-rest logistic or hinge, or NB
    with weights log theta (rows of exp(weights) sum to 1) and bias the log
    prior. alpha is NB's smoothing, None for the other kinds."""

    weights: np.ndarray  # (4, V)
    bias: np.ndarray  # (4,)
    kind: str
    converged: bool = True
    alpha: float | None = None


def nb_fit(X: FeatureRows, y: list[Label], cfg: TrainConfig = TrainConfig()) -> LinearModel:
    """Estimate priors and smoothed per-class term distributions.

    weights[c][t] = ln((T_ct + alpha) / (sum_t' T_ct' + alpha*V))
    where alpha = cfg.nb_alpha and T_ct is the total count of term t in class c.
    """
    X, labels = _training_data(X, y)
    n = X.shape[0]

    # Each class's rows are added in document order: exact for counts,
    # order-stable for other weights. The sums are copied to C order,
    # because the order numpy adds a row's entries in depends on the layout.
    term_counts = np.ascontiguousarray(column_dots(X, np.eye(N_CLASSES)[labels]).T)
    doc_counts = np.bincount(labels, minlength=N_CLASSES).astype(np.float64)

    # With no feature column the row sums are 0 and the log probabilities
    # an empty (4, 0) array; a huge alpha overflows the row sums, and the
    # finite check rejects it.
    with np.errstate(divide="ignore", over="ignore"):
        class_log_prior = np.log(doc_counts / n)
        smoothed = term_counts + cfg.nb_alpha
        feature_log_prob = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
    if not np.all(np.isfinite(feature_log_prob)):
        raise TrainingError(f"smoothing alpha {cfg.nb_alpha} gives non-finite log probabilities")
    return LinearModel(weights=feature_log_prob, bias=class_log_prior, kind=KIND_NB, alpha=float(cfg.nb_alpha))


def decision_scores(model: LinearModel, X: CSR) -> np.ndarray:
    """(n, 4) per-class scores w_c . x + b_c, one row per row of X; for NB
    the log posterior up to a constant, log prior + sum_t x_t log theta."""
    return row_dots(X, model.weights) + model.bias


def predict_labels(scores: np.ndarray) -> list[Label]:
    """Row-wise argmax with ties broken toward the lowest label code.

    Raises ScoreError, a ValueError, on a NaN score or on a row with no
    finite score; the latter names the first such row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != N_CLASSES:
        raise ValueError(f"expected rows of {N_CLASSES} scores, got shape {scores.shape}")
    if np.any(np.isnan(scores)):
        raise ScoreError("NaN score")
    finite = np.isfinite(scores).any(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ScoreError(f"no finite class score in document {row + 1}: scores {scores[row].tolist()}")
    return [_LABELS[i] for i in np.argmax(scores, axis=1).tolist()]


def logistic_objective(z, X, y_pm, C):
    """Regularized logistic loss and gradient for one binary subproblem.

    z is [w..., b]; the objective is 0.5*||w||^2 + C * sum ln(1+exp(-y*s))
    with s = X@w + b and y in {-1, +1}. The bias is unregularized.
    """
    f, margins = _logistic_loss(z, X, y_pm, C)
    grad, _ = _logistic_gradient(z, X, y_pm, C, margins)
    return f, grad


def _logistic_loss(z, X, y_pm, C):
    """(objective, margins -y*s) at z."""
    w, b = z[:-1], z[-1]
    margins = -y_pm * (row_dots(X, w) + b)
    f = 0.5 * _dot(w, w) + C * float(np.sum(np.logaddexp(0.0, margins)))
    return f, margins


def _logistic_gradient(z, X, y_pm, C, margins):
    """(gradient, D) at z from its margins; D = C*sigma*(1-sigma) shares
    sigma with the gradient."""
    sigma = _expit(margins)
    coef = C * (-y_pm) * sigma
    grad = np.empty_like(z)
    grad[:-1] = z[:-1] + column_dots(X, coef)
    grad[-1] = float(np.sum(coef))
    return grad, C * sigma * (1.0 - sigma)


def _weighted_hessp(d, p, X):
    """H p, the exact Hessian of logistic_objective at z times the vector p,
    from the D = C*sigma*(1-sigma), sigma = expit(-y*s), that
    _logistic_gradient gives at z: with q = X@p_w + p_b,
    H p = [p_w + X.T@(D*q), sum(D*q)]."""
    dq = d * (row_dots(X, p[:-1]) + p[-1])
    hp = np.empty_like(p)
    hp[:-1] = p[:-1] + column_dots(X, dq)
    hp[-1] = float(np.sum(dq))
    return hp


def _expit(x):
    """1 / (1 + exp(-x)), without overflow."""
    return np.exp(-np.logaddexp(0.0, -x))


def _dot(a, b) -> float:
    # np.dot would call BLAS, which splits long sums across its threads.
    return float(np.add.reduce(a * b))


def lr_fit(X: FeatureRows, y: list[Label], cfg: TrainConfig) -> LinearModel:
    """Fit four one-vs-rest L2-regularized logistic classifiers.

    Each subproblem is minimized by trust-region Newton (see
    _minimize_logistic) until the gradient max-norm drops to lr_tol or
    lr_max_iter Newton iterations elapse; hitting the limit only clears
    the converged flag. The four run through _one_vs_rest, the driver
    sgd_fit shares, one after another: the benchmark trains LR only at
    paper scale (1,264 documents, below PARALLEL_MIN_DOCS), so a pooled LR
    fit has never been measured.
    """
    return _one_vs_rest(X, y, cfg, _lr_binary, KIND_LOGISTIC, workers=1)


def _lr_binary(X, labels, cfg, c, seed):
    """(w, b, converged) for class c against the rest; TRON draws no seed."""
    z, converged = _minimize_logistic(X, np.where(labels == c, 1.0, -1.0), cfg)
    return z[:-1], z[-1], converged


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


def sgd_fit(X: FeatureRows, y: list[Label], cfg: TrainConfig, workers: int | None = None) -> LinearModel:
    """Fit four one-vs-rest hinge classifiers by per-example SGD.

    Per example: s = w.x + b; the L2 penalty (sgd_alpha/2)*||w||^2 decays w
    every step and a margin violation (y*s < 1) adds eta*y*x to w and
    eta*y to b. Shuffling draws from one PCG64 stream per subproblem,
    spawned from cfg.seed. Training stops early once the mean epoch
    objective improves by less than sgd_tol.

    The four run through _one_vs_rest, the driver lr_fit shares; only
    this fit lets it open a process pool, of at most ``workers`` processes
    (default: every core).
    """
    return _one_vs_rest(X, y, cfg, _sgd_binary, KIND_HINGE, workers)


def _one_vs_rest(X: FeatureRows, y: list[Label], cfg: TrainConfig, fit_class, kind, workers) -> LinearModel:
    """The LinearModel of the four class-against-the-rest subproblems, each
    fit_class(X, labels, cfg, c, seed) -> (w, b, converged) with one seed
    spawned from cfg.seed per class. Single-class data raises TrainingError.

    The subproblems share nothing. With workers (default: every core) > 1
    and at least PARALLEL_MIN_DOCS documents they run on
    min(workers, cores, N_CLASSES) processes, as a forked pool starts them
    all at its first task. The initializer hands each process the problem
    once (under fork, without a copy), so a task carries only a class index
    and its seed. Results are gathered in class order and equal the serial
    fit bit for bit.
    """
    X, labels = _training_data(X, y)
    # Not np.unique, which imports numpy.ma (about 12 ms) to test for a mask.
    if np.all(labels == labels[0]):
        raise TrainingError("training data contains a single class")
    seeds = np.random.SeedSequence(cfg.seed).spawn(N_CLASSES)
    cores = default_workers()
    workers = min(cores if workers is None else workers, cores, N_CLASSES)
    if workers <= 1 or X.shape[0] < PARALLEL_MIN_DOCS:
        results = list(map(partial(fit_class, X, labels, cfg), range(N_CLASSES), seeds))
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled fit pays its import

        problem = (X, labels, cfg, fit_class)
        with ProcessPoolExecutor(workers, initializer=_set_pool_problem, initargs=problem) as pool:
            results = list(pool.map(_pooled_class, range(N_CLASSES), seeds))

    weights, bias, converged = zip(*results)
    weights, bias = np.stack(weights), np.array(bias)
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
        raise TrainingError("training produced non-finite parameters")
    return LinearModel(weights=weights, bias=bias, kind=kind, converged=all(converged))


_pool_problem: tuple = ()  # (X, labels, cfg, fit_class) in a pool process; see _one_vs_rest


def _set_pool_problem(*problem):
    global _pool_problem
    _pool_problem = problem


def _pooled_class(c, seed):
    X, labels, cfg, fit_class = _pool_problem
    return fit_class(X, labels, cfg, c, seed)


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
