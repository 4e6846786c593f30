import math
import multiprocessing

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from verinews import models
from verinews.corpus import Label
from verinews.errors import DimensionMismatchError, TrainingError
from verinews.features import (
    SparseVector,
    build_vocabulary,
    count_transform,
    featurize,
    fit_idf,
    stack,
    tfidf_transform,
)
from verinews.models import (
    LinearModel,
    NbModel,
    TrainConfig,
    _hessian_weights,
    _minimize_logistic,
    linear_decision,
    logistic_hessp,
    logistic_objective,
    lr_fit,
    nb_fit,
    nb_log_posterior,
    predict,
    predict_labels,
    sgd_fit,
)
from verinews.textprep import CleanDoc


def vec(counts, dim):
    return SparseVector.from_counts(counts, dim)


def brute_force_nb_optimal(train_counts, train_labels, test_counts, alpha, n_classes):
    """Bayes in raw probability space: prior * product of theta**count,
    carried out in exact rational arithmetic.

    Independent of the log-space implementation under test. Returns the
    set of classes attaining the maximal posterior; on mathematically
    exact ties any member is a correct argmax (ulp noise in the log-sum
    makes the float tie-break between equal posteriors arbitrary).
    """
    from fractions import Fraction

    alpha = Fraction(alpha)
    n_docs = len(train_counts)
    dim = len(train_counts[0])
    scores = []
    for c in range(n_classes):
        class_docs = [x for x, y in zip(train_counts, train_labels) if y == c]
        prior = Fraction(len(class_docs), n_docs)
        totals = [sum(x[t] for x in class_docs) for t in range(dim)]
        denom = sum(totals) + alpha * dim
        score = prior
        for t in range(dim):
            score *= Fraction(totals[t] + alpha, denom) ** test_counts[t]
        scores.append(score)
    best = max(scores)
    return {c for c, s in enumerate(scores) if s == best}


class TestNbFit:
    def test_priors_with_absent_class(self):
        X = [vec({0: 1}, 1)] * 4
        y = [Label.FALSE, Label.FALSE, Label.TRUE, Label.PARTIALLY_FALSE]
        m = nb_fit(X, y)
        assert m.class_log_prior[0] == pytest.approx(math.log(0.5))
        assert m.class_log_prior[1] == pytest.approx(math.log(0.25))
        assert m.class_log_prior[2] == pytest.approx(math.log(0.25))
        assert m.class_log_prior[3] == -math.inf

    def test_smoothing_hand_values(self):
        # class 0 term totals (3, 1) with alpha=1 -> theta (4/6, 2/6)
        X = [vec({0: 3, 1: 1}, 2), vec({0: 1}, 2)]
        y = [Label.FALSE, Label.TRUE]
        m = nb_fit(X, y, alpha=1.0)
        np.testing.assert_allclose(np.exp(m.feature_log_prob[0]), [4 / 6, 2 / 6])

    def test_symmetric_counts_give_equal_rows(self):
        X = [vec({0: 2, 1: 2}, 2), vec({0: 2, 1: 2}, 2)]
        y = [Label.FALSE, Label.TRUE]
        m = nb_fit(X, y)
        np.testing.assert_array_equal(m.feature_log_prob[0], m.feature_log_prob[1])

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError, match="empty"):
            nb_fit([], [])

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(TrainingError, match="alpha"):
            nb_fit([vec({0: 1}, 1)], [Label.FALSE], alpha=0.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    @pytest.mark.parametrize("dim", [0, 1])
    def test_nan_or_infinite_alpha_rejected(self, alpha, dim):
        # With an empty vocabulary no log probability shows the bad alpha.
        with pytest.raises(TrainingError, match="alpha"):
            nb_fit([vec({0: 1} if dim else {}, dim)], [Label.FALSE], alpha=alpha)

    def test_length_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            nb_fit([vec({0: 1}, 1)], [Label.FALSE, Label.TRUE])

    def test_empty_vocabulary_allowed(self):
        m = nb_fit([vec({}, 0), vec({}, 0)], [Label.FALSE, Label.TRUE])
        assert m.vocab_size == 0
        assert nb_log_posterior(m, vec({}, 0)).tolist() == m.class_log_prior.tolist()


_corpora = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.integers(0, 3), min_size=4, max_size=4),
            min_size=n,
            max_size=n,
        ),
        st.lists(st.sampled_from(list(Label)), min_size=n, max_size=n),
    )
)


@settings(max_examples=200)
@given(_corpora)
def test_nb_rows_always_sum_to_one(data):
    counts, labels = data
    X = [vec({i: c for i, c in enumerate(row) if c}, 4) for row in counts]
    m = nb_fit(X, labels)
    np.testing.assert_allclose(np.exp(m.feature_log_prob).sum(axis=1), 1.0, atol=1e-9)
    assert np.exp(m.class_log_prior).sum() == pytest.approx(1.0, abs=1e-9)


def reference_nb_fit(X, y, alpha):
    """Per-document accumulation of class term totals, in document order."""
    dim = X[0].dim
    term_counts = np.zeros((4, dim))
    doc_counts = np.zeros(4)
    for x, label in zip(X, y):
        term_counts[int(label), x.indices] += x.values
        doc_counts[int(label)] += 1.0
    with np.errstate(divide="ignore"):
        prior = np.log(doc_counts / len(X))
    if dim == 0:
        return prior, np.zeros((4, 0))
    smoothed = term_counts + alpha
    return prior, np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))


# Eight possible terms over up to 40 documents: many documents add to each
# (class, term) total, so a different summation order shows in the bits.
_nb_docs = st.lists(
    st.tuples(
        st.lists(st.text(alphabet="ab", min_size=3, max_size=3), max_size=12),
        st.sampled_from(list(Label)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150)
@given(_nb_docs, st.sampled_from([0.5, 1.0]), st.booleans())
def test_nb_fit_matches_per_document_reference(data, alpha, tfidf):
    # tfidf=True is NB forced onto TF-IDF weights, whose sums are not exact
    docs = [CleanDoc(id="n", tokens=tuple(tokens)) for tokens, _ in data]
    labels = [label for _, label in data]
    vocab = build_vocabulary(docs)
    idf = fit_idf(docs, vocab) if tfidf else None
    vectors = [
        tfidf_transform(d, vocab, idf) if tfidf else count_transform(d, vocab) for d in docs
    ]
    prior, log_prob = reference_nb_fit(vectors, labels, alpha)
    for X in (featurize(docs, vocab, idf), vectors):
        m = nb_fit(X, labels, alpha=alpha)
        assert m.class_log_prior.tobytes() == prior.tobytes()
        assert m.feature_log_prob.tobytes() == log_prob.tobytes()


class TestNbPosterior:
    def test_zero_vector_returns_priors(self):
        m = nb_fit([vec({0: 1}, 2), vec({1: 1}, 2)], [Label.FALSE, Label.TRUE])
        np.testing.assert_array_equal(nb_log_posterior(m, vec({}, 2)), m.class_log_prior)

    def test_matches_probability_space_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, dim = int(rng.integers(2, 5)), int(rng.integers(1, 6))
            counts = rng.integers(0, 4, size=(n, dim)).tolist()
            labels = [int(c) for c in rng.integers(0, 3, size=n)]
            X = [vec({i: c for i, c in enumerate(row) if c}, dim) for row in counts]
            m = nb_fit(X, [Label(c) for c in labels])
            test = rng.integers(0, 3, size=dim).tolist()
            x = vec({i: c for i, c in enumerate(test) if c}, dim)
            got = int(predict(nb_log_posterior(m, x)))
            assert got in brute_force_nb_optimal(counts, labels, test, m.alpha, 4)

    def test_constant_prior_shift_preserves_argmax(self):
        X = [vec({0: 2}, 2), vec({1: 3}, 2), vec({0: 1}, 2), vec({1: 1}, 2)]
        m = nb_fit(X, [Label.FALSE, Label.TRUE, Label.PARTIALLY_FALSE, Label.OTHER])
        shifted = NbModel(
            class_log_prior=m.class_log_prior + 5.0,
            feature_log_prob=m.feature_log_prob,
            alpha=m.alpha,
            vocab_size=m.vocab_size,
        )
        x = vec({0: 1, 1: 1}, 2)
        base = nb_log_posterior(m, x)
        moved = nb_log_posterior(shifted, x)
        np.testing.assert_allclose(moved - base, 5.0)
        assert predict(base) == predict(moved)

    def test_dim_mismatch_rejected(self):
        m = nb_fit([vec({0: 1}, 2), vec({1: 1}, 2)], [Label.FALSE, Label.TRUE])
        with pytest.raises(DimensionMismatchError):
            nb_log_posterior(m, vec({0: 1}, 3))


class TestPredict:
    def test_plain_argmax(self):
        assert predict(np.array([0.0, -1.0, -2.0, -3.0])) == Label.FALSE

    def test_tie_breaks_to_lowest_code(self):
        assert predict(np.array([5.0, 5.0, 1.0, 1.0])) == Label.FALSE

    def test_last_class_wins(self):
        assert predict(np.array([-1.0, -1.0, -1.0, 0.0])) == Label.OTHER

    def test_all_neg_inf_rejected(self):
        with pytest.raises(ValueError, match="-inf"):
            predict(np.full(4, -np.inf))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            predict(np.array([0.0, np.nan, 0.0, 0.0]))

    def test_batch_rejects_a_row_of_neg_inf(self):
        scores = np.array([[0.0, 1.0, 0.0, 0.0], [-np.inf] * 4])
        with pytest.raises(ValueError, match="-inf"):
            predict_labels(scores)

    def test_batch_matches_per_row(self):
        scores = np.array([[5.0, 5.0, 1.0, 1.0], [-1.0, -1.0, -1.0, 0.0], [-np.inf, 0.0, 2.0, 2.0]])
        assert predict_labels(scores) == [predict(row) for row in scores]


def _random_problem(rng, n=8, dim=20):
    rows = []
    for _ in range(n):
        cols = rng.choice(dim, size=int(rng.integers(2, 6)), replace=False)
        rows.append(vec({int(c): float(rng.integers(1, 4)) for c in cols}, dim))
    labels = rng.integers(0, 2, size=n)
    return stack(rows), np.where(labels == 1, 1.0, -1.0)


def _random_multiclass_problem(rng, n=200, dim=60):
    X = sp.random(
        n, dim, density=0.1, format="csr", random_state=rng, data_rvs=lambda k: rng.uniform(0.1, 1.0, k)
    )
    return X, rng.integers(0, 4, size=n)


def _lbfgs_reference_objective(X, y_pm, C):
    """The objective that L-BFGS-B reaches when run well past lr_tol."""
    result = scipy.optimize.minimize(
        logistic_objective,
        np.zeros(X.shape[1] + 1),
        args=(X, y_pm, C),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 10_000, "gtol": 1e-8, "ftol": 0.0},
    )
    return result.fun


class TestLogistic:
    def test_separable_points_rank_correctly(self):
        X = [vec({0: 1.0}, 2), vec({1: 1.0}, 2)]
        y = [Label.FALSE, Label.TRUE]
        m = lr_fit(X, y, TrainConfig())
        assert m.kind == "logistic"
        assert predict(linear_decision(m, X[0])) == Label.FALSE
        assert predict(linear_decision(m, X[1])) == Label.TRUE

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X, y_pm = _random_problem(rng)
        h = 1e-6
        for _ in range(10):
            z = rng.normal(size=X.shape[1] + 1)
            _, grad = logistic_objective(z, X, y_pm, 100.0)
            fd = np.empty_like(z)
            for i in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (
                    logistic_objective(zp, X, y_pm, 100.0)[0]
                    - logistic_objective(zm, X, y_pm, 100.0)[0]
                ) / (2 * h)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6

    def test_hessp_matches_finite_differences_of_the_gradient(self):
        rng = np.random.default_rng(12)
        X, y_pm = _random_problem(rng)
        h = 1e-6
        for _ in range(10):
            z = rng.normal(size=X.shape[1] + 1)
            p = rng.normal(size=z.size)
            hp = logistic_hessp(z, p, X, y_pm, 100.0)
            fd = (
                logistic_objective(z + h * p, X, y_pm, 100.0)[1]
                - logistic_objective(z - h * p, X, y_pm, 100.0)[1]
            ) / (2 * h)
            assert np.linalg.norm(hp - fd) / np.linalg.norm(fd) < 1e-6

    def test_newton_loop_hessian_weights_match_hessian_weights_bit_for_bit(self, monkeypatch):
        # The loop computes D alongside the gradient at each accepted iterate;
        # every D its Hessian products use must equal _hessian_weights there.
        rng = np.random.default_rng(14)
        X, labels = _random_multiclass_problem(rng)
        y_pm = np.where(labels == 0, 1.0, -1.0)
        cfg = TrainConfig()
        used = []
        hessp = models._weighted_hessp

        def recording_hessp(d, p, X):
            if not used or used[-1] is not d:
                used.append(d)
            return hessp(d, p, X)

        monkeypatch.setattr(models, "_weighted_hessp", recording_hessp)
        iterates = [np.zeros(X.shape[1] + 1)]
        _minimize_logistic(
            X, y_pm, cfg,
            callback=lambda z: iterates.append(z) if z is not iterates[-1] else None,
        )
        assert len(used) >= 2
        for d, z in zip(used, iterates):
            assert d.tobytes() == _hessian_weights(z, X, y_pm, cfg.lr_C).tobytes()

    def test_every_class_meets_the_gradient_test_and_beats_lbfgs(self):
        X, labels = _random_multiclass_problem(np.random.default_rng(13))
        cfg = TrainConfig()
        m = lr_fit(X, [Label(int(c)) for c in labels], cfg)
        assert m.converged
        for c in range(4):
            y_pm = np.where(labels == c, 1.0, -1.0)
            f, grad = logistic_objective(np.append(m.weights[c], m.bias[c]), X, y_pm, cfg.lr_C)
            assert np.max(np.abs(grad)) <= cfg.lr_tol
            assert f <= _lbfgs_reference_objective(X, y_pm, cfg.lr_C) * (1 + 1e-9)

    def test_larger_c_fits_training_data_tighter(self):
        X = [vec({0: 1.0}, 2), vec({1: 1.0}, 2)] * 3
        y = [Label.FALSE, Label.TRUE] * 3
        losses = {}
        for C in (1.0, 100.0):
            m = lr_fit(X, y, TrainConfig(lr_C=C))
            data_loss = 0.0
            for x, label in zip(X, y):
                s = linear_decision(m, x)
                for c in range(2):
                    ypm = 1.0 if int(label) == c else -1.0
                    data_loss += float(np.logaddexp(0.0, -ypm * s[c]))
            losses[C] = data_loss
        assert losses[100.0] < losses[1.0]

    def test_objective_non_increasing_over_iterations(self):
        rng = np.random.default_rng(3)
        X, y_pm = _random_problem(rng, n=12)
        cfg = TrainConfig()
        values = []
        _minimize_logistic(
            X, y_pm, cfg, callback=lambda zk: values.append(logistic_objective(zk, X, y_pm, cfg.lr_C)[0])
        )
        assert len(values) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_single_class_rejected(self):
        X = [vec({0: 1.0}, 1)] * 3
        with pytest.raises(TrainingError, match="single class"):
            lr_fit(X, [Label.FALSE] * 3, TrainConfig())


class TestLinearDecision:
    def test_bias_only(self):
        m = LinearModel(weights=np.zeros((4, 2)), bias=np.array([1.0, 0, 0, 0]), kind="logistic")
        np.testing.assert_array_equal(linear_decision(m, vec({0: 1.0}, 2)), [1.0, 0, 0, 0])

    def test_zero_vector_gives_bias(self):
        m = LinearModel(weights=np.ones((4, 2)), bias=np.array([1.0, 2, 3, 4]), kind="hinge")
        np.testing.assert_array_equal(linear_decision(m, vec({}, 2)), [1.0, 2, 3, 4])

    def test_hand_dot_products(self):
        w = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 0.0], [-2.0, 1.0]])
        m = LinearModel(weights=w, bias=np.array([0.1, 0.2, 0.3, 0.4]), kind="hinge")
        x = vec({0: 2.0, 1: 3.0}, 2)
        np.testing.assert_allclose(
            linear_decision(m, x), [2 + 6 + 0.1, 1 - 3 + 0.2, 0.3, -4 + 3 + 0.4]
        )

    def test_dim_mismatch_rejected(self):
        m = LinearModel(weights=np.zeros((4, 2)), bias=np.zeros(4), kind="hinge")
        with pytest.raises(DimensionMismatchError):
            linear_decision(m, vec({0: 1.0}, 3))

    def test_invariant_to_entry_insertion_order(self):
        m = LinearModel(
            weights=np.arange(8.0).reshape(4, 2), bias=np.zeros(4), kind="hinge"
        )
        a = vec({0: 1.0, 1: 2.0}, 2)
        b = SparseVector.from_counts({1: 2.0, 0: 1.0}, 2)
        np.testing.assert_array_equal(linear_decision(m, a), linear_decision(m, b))


def _toy_tfidf_set():
    X = [
        vec({0: 0.9, 2: 0.1}, 3),
        vec({1: 0.8, 2: 0.2}, 3),
        vec({0: 0.7, 1: 0.3}, 3),
        vec({2: 1.0}, 3),
    ] * 5
    y = [Label.FALSE, Label.TRUE, Label.FALSE, Label.PARTIALLY_FALSE] * 5
    return X, y


def _reference_sgd_fit(X, labels, cfg):
    """sgd_fit's first version: one subproblem after another, the step
    loop on numpy scalars with an in-place scatter, and ||w||^2 by ddot.
    Weights, bias and the converged flag must match it bit for bit."""
    eta0 = cfg.sgd_alpha**-0.25
    t0 = 1.0 / (cfg.sgd_alpha * eta0)
    weights = np.zeros((4, X.shape[1]))
    bias = np.zeros(4)
    converged = True
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    for c in range(4):
        y_pm = np.where(labels == c, 1.0, -1.0)
        rng = np.random.Generator(np.random.PCG64(seeds[c]))
        weights[c], bias[c], stopped = _reference_sgd_binary(X, y_pm, cfg, t0, rng)
        converged = converged and stopped
    return weights, bias, converged


def _reference_sgd_binary(X, y_pm, cfg, t0, rng):
    n, dim = X.shape
    alpha = cfg.sgd_alpha
    w = np.zeros(dim)
    scale = 1.0
    b = 0.0
    t = 0.0
    prev_loss = None
    indptr, cols, data = X.indptr, X.indices, X.data

    for _ in range(cfg.sgd_epochs):
        for i in rng.permutation(n):
            lo, hi = indptr[i], indptr[i + 1]
            idx, val = cols[lo:hi], data[lo:hi]
            s = scale * float(w[idx] @ val) + b
            eta = 1.0 / (alpha * (t0 + t))
            scale *= max(0.0, 1.0 - eta * alpha)
            if scale < 1e-9:
                w *= scale
                scale = 1.0
            yi = y_pm[i]
            if yi * s < 1.0:
                w[idx] += (eta * yi / scale) * val
                b += eta * yi
            t += 1.0

        w_eff = scale * w
        margins = 1.0 - y_pm * (X @ w_eff + b)
        loss = float(np.mean(np.maximum(0.0, margins))) + 0.5 * alpha * float(w_eff @ w_eff)
        if prev_loss is not None and prev_loss - loss < cfg.sgd_tol:
            return w_eff, b, True
        prev_loss = loss
    return scale * w, b, False


# The default schedule; sgd_alpha=1.0, where the first step's decay is 0 and
# takes the rescale branch; and an epoch cap the fit hits (converged False).
SGD_CONFIGS = [TrainConfig(), TrainConfig(sgd_alpha=1.0, seed=5), TrainConfig(sgd_epochs=2, seed=9)]


class TestSgd:
    @pytest.mark.parametrize("cfg", SGD_CONFIGS)
    @pytest.mark.parametrize("problem_seed", [21, 22])
    def test_matches_the_reference_loop_bit_for_bit(self, cfg, problem_seed):
        X, labels = _random_multiclass_problem(np.random.default_rng(problem_seed), n=300, dim=80)
        m = sgd_fit(X, [Label(int(c)) for c in labels], cfg)
        weights, bias, converged = _reference_sgd_fit(X, labels, cfg)
        assert m.weights.tobytes() == weights.tobytes()
        assert m.bias.tobytes() == bias.tobytes()
        assert m.converged == converged

    def test_pooled_fit_equals_serial_fit(self, monkeypatch):
        # Two cores on any host, so the fit opens a real pool of two.
        monkeypatch.setattr(models, "default_workers", lambda: 2)
        X, labels = _random_multiclass_problem(np.random.default_rng(23), n=300, dim=80)
        y = [Label(int(c)) for c in labels]
        for cfg in SGD_CONFIGS:
            m = sgd_fit(X, y, cfg, workers=2)
            # The pool is shut down before the fit returns: no worker is
            # left running.
            assert multiprocessing.active_children() == []
            serial = sgd_fit(X, y, cfg)
            assert m.weights.tobytes() == serial.weights.tobytes()
            assert m.bias.tobytes() == serial.bias.tobytes()
            assert m.converged == serial.converged

    def test_same_seed_bit_identical(self):
        X, y = _toy_tfidf_set()
        a = sgd_fit(X, y, TrainConfig(seed=42))
        b = sgd_fit(X, y, TrainConfig(seed=42))
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()

    def test_different_seed_differs(self):
        X, y = _toy_tfidf_set()
        a = sgd_fit(X, y, TrainConfig(seed=42))
        b = sgd_fit(X, y, TrainConfig(seed=43))
        assert a.weights.tobytes() != b.weights.tobytes()

    def test_separable_set_fits_exactly(self):
        X = [vec({0: 1.0}, 2), vec({1: 1.0}, 2)] * 10
        y = [Label.FALSE, Label.TRUE] * 10
        m = sgd_fit(X, y, TrainConfig())
        assert m.kind == "hinge"
        assert all(predict(linear_decision(m, x)) == t for x, t in zip(X, y))
        assert m.converged

    def test_single_class_rejected(self):
        X = [vec({0: 1.0}, 1)] * 3
        with pytest.raises(TrainingError, match="single class"):
            sgd_fit(X, [Label.OTHER] * 3, TrainConfig())

    def test_finite_parameters(self):
        X, y = _toy_tfidf_set()
        m = sgd_fit(X, y, TrainConfig())
        assert np.all(np.isfinite(m.weights)) and np.all(np.isfinite(m.bias))


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr_C == 100.0 and cfg.seed == 42 and cfg.sgd_alpha == 1e-4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_C=0.0)
        with pytest.raises(ValueError):
            TrainConfig(sgd_alpha=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_max_iter=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, value):
        # A NaN lr_tol would end the Newton loop before its first step.
        with pytest.raises(ValueError, match="lr_tol"):
            TrainConfig(lr_tol=value)
