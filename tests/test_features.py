import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from csr_rows import csr_rows
from verinews.errors import DimensionMismatchError, VocabularyError
from verinews.features import (
    CSR,
    _scale_rows,
    IdfWeights,
    Vocabulary,
    build_vocabulary,
    class_sums,
    count_transform,
    featurize,
    fit_features,
    fit_idf,
    row_dots,
    stack,
    tfidf_transform,
)
from verinews.textprep import CleanDoc


def doc(*tokens, id="d"):
    return CleanDoc(id=id, tokens=tuple(tokens))


@pytest.fixture
def small_vocab():
    return build_vocabulary([doc("cat", "dog", "dog"), doc("dog", "fish")])


class TestVocabulary:
    def test_empty_corpus(self):
        assert build_vocabulary([]).size == 0

    def test_lexicographic_indexing(self, small_vocab):
        assert small_vocab.term_to_index == {"cat": 0, "dog": 1, "fish": 2}

    def test_permutation_invariant(self, small_vocab):
        permuted = build_vocabulary([doc("dog", "fish"), doc("cat", "dog", "dog")])
        assert permuted == small_vocab

    def test_terms_in_index_order(self, small_vocab):
        assert small_vocab.terms() == ["cat", "dog", "fish"]

    def test_min_df_prunes_rare_terms(self):
        corpus = [doc("cat", "dog", "dog"), doc("dog", "fish")]
        vocab = build_vocabulary(corpus, min_df=2)
        assert vocab.term_to_index == {"dog": 0}

    def test_max_df_prunes_common_terms(self):
        corpus = [doc("cat", "dog"), doc("dog", "fish")]
        vocab = build_vocabulary(corpus, max_df=1)
        assert vocab.term_to_index == {"cat": 0, "fish": 1}

    def test_max_terms_keeps_highest_df_with_lexicographic_ties(self):
        corpus = [doc("cat", "dog"), doc("dog", "fish"), doc("ant")]
        vocab = build_vocabulary(corpus, max_terms=2)
        # dog (df 2) first, then the lexicographically smallest df-1 term
        assert vocab.term_to_index == {"ant": 0, "dog": 1}

    @pytest.mark.parametrize("bound", ["min_df", "max_df", "max_terms"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_bound_below_1_rejected(self, bound, value):
        # max_terms=-1 once kept all but the last term.
        with pytest.raises(VocabularyError, match=f"{bound} must be >= 1") as info:
            build_vocabulary([doc("cat"), doc("dog")], **{bound: value})
        assert info.value.param == bound

    def test_pruning_defaults_off(self):
        corpus = [doc("cat"), doc("dog")]
        assert build_vocabulary(corpus).size == 2

    def test_pruned_vocabulary_order_independent(self):
        corpus = [doc("cat", "dog"), doc("dog", "fish"), doc("ant")]
        a = build_vocabulary(corpus, max_terms=2)
        b = build_vocabulary(corpus[::-1], max_terms=2)
        assert a == b


class TestCountTransform:
    def test_direct_count(self, small_vocab):
        v = featurize([doc("dog", "dog", "cat")], small_vocab)
        assert v.shape == (1, 3)
        assert v.indices.tolist() == [0, 1]
        assert v.data.tolist() == [1.0, 2.0]

    def test_oov_dropped(self, small_vocab):
        v = featurize([doc("zebra")], small_vocab)
        assert v.nnz == 0 and v.shape == (1, 3)

    def test_empty_doc(self, small_vocab):
        assert featurize([doc()], small_vocab).nnz == 0


class TestIdf:
    def test_two_doc_hand_values(self, small_vocab):
        # oracle: direct evaluation of ln((1+N)/(1+df)) + 1
        corpus = [doc("cat", "dog"), doc("dog")]
        vocab = build_vocabulary(corpus)
        idf = fit_idf(corpus, vocab)
        assert idf.n_docs == 2
        assert idf.idf[vocab.term_to_index["cat"]] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
        assert idf.idf[vocab.term_to_index["dog"]] == pytest.approx(1.0, abs=1e-12)

    def test_vocab_term_absent_from_corpus(self):
        vocab = build_vocabulary([doc("alpha"), doc("beta")])
        idf = fit_idf([doc("alpha"), doc("beta"), doc("alpha")], vocab)
        # df=0 never happens here; force it with a superset vocabulary
        superset = build_vocabulary([doc("alpha"), doc("beta"), doc("ghost")])
        idf = fit_idf([doc("alpha"), doc("beta"), doc("alpha")], superset)
        n = 3
        assert idf.idf[superset.term_to_index["ghost"]] == pytest.approx(math.log(n + 1) + 1)

    def test_single_doc_idf_is_one(self):
        corpus = [doc("only")]
        idf = fit_idf(corpus, build_vocabulary(corpus))
        assert idf.idf.tolist() == [1.0]

    def test_idf_at_least_one(self):
        corpus = [doc("a" * 3, "bbb"), doc("bbb"), doc("ccc")]
        idf = fit_idf(corpus, build_vocabulary(corpus))
        assert np.all(idf.idf >= 1.0)

    def test_permutation_invariant(self):
        docs = [doc("aaa", "bbb"), doc("bbb"), doc("ccc", "aaa")]
        vocab = build_vocabulary(docs)
        a = fit_idf(docs, vocab)
        b = fit_idf(docs[::-1], vocab)
        assert a.idf.tobytes() == b.idf.tobytes()


class TestTfidf:
    def test_hand_values(self):
        corpus = [doc("cat", "dog"), doc("dog")]
        vocab = build_vocabulary(corpus)
        idf = fit_idf(corpus, vocab)
        v = featurize(corpus[:1], vocab, idf)
        # oracle: recompute by hand from the formula
        cat, dog_ = math.log(3 / 2) + 1, 1.0
        norm = math.hypot(cat, dog_)
        assert v.data[0] == pytest.approx(cat / norm, abs=1e-12)
        assert v.data[1] == pytest.approx(dog_ / norm, abs=1e-12)
        assert v.data[0] == pytest.approx(0.81481, abs=1e-5)
        assert v.data[1] == pytest.approx(0.57973, abs=1e-5)

    def test_single_term_doc_normalizes_to_one(self):
        corpus = [doc("solo"), doc("noise")]
        vocab = build_vocabulary(corpus)
        idf = fit_idf(corpus, vocab)
        v = featurize([doc("solo", "solo")], vocab, idf)
        assert v.data.tolist() == [1.0]

    def test_all_oov_stays_zero(self, small_vocab):
        idf = fit_idf([doc("cat"), doc("dog")], small_vocab)
        assert featurize([doc("zebra")], small_vocab, idf).nnz == 0

    def test_idf_length_mismatch_rejected(self, small_vocab):
        with pytest.raises(DimensionMismatchError):
            featurize([doc("cat")], small_vocab, IdfWeights(idf=np.ones(1), n_docs=1))


_token = st.text(alphabet="abcdefg", min_size=3, max_size=6)
_docs = st.lists(
    st.lists(_token, max_size=12).map(lambda ts: CleanDoc(id="h", tokens=tuple(ts))),
    min_size=1,
    max_size=8,
)


def row_slices(X):
    """(columns, weights) of each row of X."""
    bounds = zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist())
    return [(X.indices[lo:hi], X.data[lo:hi]) for lo, hi in bounds]


@settings(max_examples=150)
@given(_docs)
def test_nonzero_tfidf_vectors_have_unit_norm(corpus):
    vocab = build_vocabulary(corpus)
    X = featurize(corpus, vocab, fit_idf(corpus, vocab))
    for _, weights in row_slices(X):
        if weights.size:
            assert abs(np.sqrt(np.sum(weights**2)) - 1.0) <= 1e-9


@settings(max_examples=150)
@given(_docs)
def test_count_weights_are_integers_summing_to_kept_tokens(corpus):
    vocab = build_vocabulary(corpus)
    for d, (_, weights) in zip(corpus, row_slices(featurize(corpus, vocab))):
        assert np.all(weights == np.round(weights))
        kept = sum(1 for t in d.tokens if t in vocab.term_to_index)
        assert weights.sum() == kept


@settings(max_examples=50)
@given(_docs)
def test_transforms_bit_identical_across_runs(corpus):
    va = build_vocabulary(corpus)
    vb = build_vocabulary(list(corpus))
    assert va == vb
    ia, ib = fit_idf(corpus, va), fit_idf(corpus, vb)
    assert ia.idf.tobytes() == ib.idf.tobytes()
    assert_same_csr(featurize(corpus, va, ia), featurize(list(corpus), vb, ib))


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_csr(a, b):
    assert a.shape == b.shape
    for field in ("data", "indices", "indptr"):
        assert_same_array(getattr(a, field), getattr(b, field))


class TestStack:
    def test_shape_and_contents(self):
        m = stack([csr_rows([{0: 1.0}, {}], 3), csr_rows([{2: 2.0}], 3)])
        assert m.shape == (3, 3)
        assert m.toarray().tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
        assert_same_csr(m, csr_rows([{0: 1.0}, {}, {2: 2.0}], 3))

    def test_all_empty_rows(self):
        assert stack([csr_rows([{}], 3)] * 2).nnz == 0

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            stack([csr_rows([{0: 1.0}], 3), csr_rows([{0: 1.0}], 4)])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stack([])


# Reference per-document transforms, written out independently of featurize:
# a Counter per document, then the L2 norm of each document on its own.
def reference_count(d, vocab):
    counts = Counter(vocab.term_to_index[t] for t in d.tokens if t in vocab.term_to_index)
    return csr_rows([counts], vocab.size)


def reference_tfidf(d, vocab, idf):
    counts = reference_count(d, vocab)
    weighted = counts.data * idf.idf[counts.indices]
    if counts.nnz:
        weighted = weighted / np.sqrt(np.sum(weighted**2))
    return CSR(data=weighted, indices=counts.indices, indptr=counts.indptr, shape=counts.shape)


def row(X, i):
    """Row i of X as a one-row matrix."""
    lo, hi = int(X.indptr[i]), int(X.indptr[i + 1])
    indptr = np.array([0, hi - lo], dtype=X.indptr.dtype)
    return CSR(data=X.data[lo:hi], indices=X.indices[lo:hi], indptr=indptr, shape=(1, X.shape[1]))


# Tokens from a small alphabet repeat within and across documents; "zzz..."
# tokens never reach the vocabulary (all-OOV and partly-OOV documents).
_feature_tokens = st.one_of(
    st.text(alphabet="abcd", min_size=3, max_size=4), st.text(alphabet="z", min_size=3, max_size=5)
)
_feature_docs = st.lists(
    st.lists(_feature_tokens, max_size=40).map(lambda ts: CleanDoc(id="f", tokens=tuple(ts))),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200)
@given(train=_feature_docs, scored=_feature_docs, min_df=st.integers(1, 3))
def test_featurize_matches_per_document_reference(train, scored, min_df):
    # z-tokens stay out of the vocabulary; min_df above the corpus size
    # empties it
    in_vocab = [doc(*(t for t in d.tokens if t[0] != "z")) for d in train]
    vocab = build_vocabulary(in_vocab, min_df=min_df)
    idf = fit_idf(train, vocab)
    for weights, reference, transform in (
        (None, lambda d: reference_count(d, vocab), lambda d: count_transform(d, vocab)),
        (idf, lambda d: reference_tfidf(d, vocab, idf), lambda d: tfidf_transform(d, vocab, idf)),
    ):
        X = featurize(scored, vocab, weights)
        assert_same_csr(X, stack([reference(d) for d in scored]))
        rows = [transform(d) for d in scored]
        for i, got in enumerate(rows):
            assert_same_csr(got, row(X, i))
        assert_same_csr(stack(rows), X)
        # Multi-row pieces, the second of them empty when only one document is scored.
        half = len(scored) // 2 + 1
        pieces = [featurize(scored[:half], vocab, weights), featurize(scored[half:], vocab, weights)]
        assert_same_csr(stack(pieces), X)


# The vocabulary and IDF as first written: a Counter over each document's
# token set, then a set of columns per document.
def reference_vocabulary(corpus, min_df=1, max_df=None, max_terms=None):
    df = Counter()
    for d in corpus:
        df.update(set(d.tokens))
    kept = [t for t, n in df.items() if n >= min_df and (max_df is None or n <= max_df)]
    if max_terms is not None and len(kept) > max_terms:
        kept.sort(key=lambda t: (-df[t], t))
        kept = kept[:max_terms]
    return Vocabulary(term_to_index={t: i for i, t in enumerate(sorted(kept))})


def reference_idf(corpus, vocab):
    df = np.zeros(vocab.size, dtype=np.float64)
    lookup = vocab.term_to_index
    for d in corpus:
        seen = {lookup[t] for t in set(d.tokens) if t in lookup}
        if seen:
            df[np.fromiter(seen, dtype=np.int64, count=len(seen))] += 1.0
    return IdfWeights(idf=np.log((1.0 + len(corpus)) / (1.0 + df)) + 1.0, n_docs=len(corpus))


_fit_tokens = st.text(alphabet="abcde", min_size=1, max_size=2)
_fit_docs = st.lists(
    st.lists(_fit_tokens, max_size=10).map(lambda ts: CleanDoc(id="t", tokens=tuple(ts))),
    max_size=10,
)
_bound = st.one_of(st.none(), st.integers(1, 12))


@settings(max_examples=400)
@given(
    corpus=_fit_docs, min_df=st.integers(1, 12), max_df=_bound, max_terms=_bound, tfidf=st.booleans()
)
def test_fit_features_matches_the_per_document_reference(corpus, min_df, max_df, max_terms, tfidf):
    # Covers the empty corpus, empty documents, df ties under max_terms and
    # bounds that prune every term.
    vocab, idf, X = fit_features(corpus, tfidf, min_df, max_df, max_terms)
    want_vocab = reference_vocabulary(corpus, min_df, max_df, max_terms)
    assert list(vocab.term_to_index.items()) == list(want_vocab.term_to_index.items())
    want_idf = reference_idf(corpus, want_vocab) if tfidf else None
    if tfidf:
        assert idf.n_docs == want_idf.n_docs
        assert_same_array(idf.idf, want_idf.idf)
    else:
        assert idf is None
    assert_same_csr(X, featurize(corpus, want_vocab, want_idf))
    assert build_vocabulary(corpus, min_df, max_df, max_terms) == want_vocab
    assert_same_array(fit_idf(corpus, want_vocab).idf, reference_idf(corpus, want_vocab).idf)


def test_fit_features_edge_cases():
    vocab, idf, X = fit_features([], True)
    assert vocab.size == 0 and idf.n_docs == 0 and X.shape == (0, 0)
    vocab, idf, X = fit_features([doc(), doc("cat")], True, min_df=2)
    assert vocab.size == 0 and idf.idf.size == 0
    assert X.shape == (2, 0) and X.indptr.tolist() == [0, 0, 0]
    with pytest.raises(VocabularyError, match="max_terms"):
        fit_features([doc("cat")], False, max_terms=0)


def test_featurize_edge_shapes(small_vocab):
    assert featurize([], small_vocab).shape == (0, 3)
    empty = featurize([doc(), doc("zebra")], Vocabulary(term_to_index={}))
    assert empty.shape == (2, 0) and empty.nnz == 0
    idf = fit_idf([doc("cat")], small_vocab)
    assert featurize([doc(), doc("zebra")], small_vocab, idf).nnz == 0
    with pytest.raises(DimensionMismatchError):
        featurize([doc("cat")], small_vocab, IdfWeights(idf=np.ones(1), n_docs=1))


def test_kernels_equal_scipy_products_bit_for_bit():
    # Rows of about 40 random weights, so a different summation order
    # would show in the last bits.
    rng = np.random.default_rng(31)
    M = sp.random(60, 80, density=0.5, format="csr", random_state=rng)
    X = CSR(data=M.data, indices=M.indices.astype(np.int64), indptr=M.indptr.astype(np.int64),
            shape=M.shape)
    W = rng.normal(size=(4, 80))
    labels = rng.integers(0, 4, size=60)
    one_hot = sp.csr_matrix((np.ones(60), (labels, np.arange(60))), shape=(4, 60))
    for rows in (X, M):
        assert row_dots(rows, W).tobytes() == (M @ W.T).tobytes()
        assert row_dots(rows, W[1]).tobytes() == (M @ W[1]).tobytes()
        assert class_sums(rows, labels, 4).tobytes() == (one_hot @ M).toarray().tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_norms_by_length_equal_one_row_sums(seed):
    # Rows of 0-600 entries, past numpy's 128-element pairwise blocks,
    # several of each length: each norm must be the one-row sum, bit for bit.
    rng = np.random.default_rng(seed)
    lengths = np.concatenate((rng.integers(0, 601, size=40), [0, 1, 127, 128, 129, 600] * 2))
    rng.shuffle(lengths)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    indices = rng.integers(0, 50, size=indptr[-1])
    data = rng.integers(1, 6, size=indptr[-1]).astype(np.float64)
    idf = IdfWeights(idf=1.0 + rng.random(50) * 5, n_docs=100)
    scaled = data * idf.idf[indices]
    squares = scaled**2
    norms = [np.add.reduce(squares[lo:hi]) for lo, hi in zip(indptr[:-1], indptr[1:])]
    want = scaled / np.repeat(np.sqrt(norms), lengths)
    _scale_rows(indptr, indices, data, idf)
    assert_same_array(data, want)
