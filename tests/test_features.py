import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from verinews.errors import DimensionMismatchError, VocabularyError
from verinews.features import (
    CSR,
    IdfWeights,
    SparseVector,
    Vocabulary,
    build_vocabulary,
    class_sums,
    count_transform,
    featurize,
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
        v = count_transform(doc("dog", "dog", "cat"), small_vocab)
        assert v.dim == 3
        assert v.indices.tolist() == [0, 1]
        assert v.values.tolist() == [1.0, 2.0]

    def test_oov_dropped(self, small_vocab):
        v = count_transform(doc("zebra"), small_vocab)
        assert v.nnz == 0 and v.dim == 3

    def test_empty_doc(self, small_vocab):
        assert count_transform(doc(), small_vocab).nnz == 0


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
        v = tfidf_transform(corpus[0], vocab, idf)
        # oracle: recompute by hand from the formula
        cat, dog_ = math.log(3 / 2) + 1, 1.0
        norm = math.hypot(cat, dog_)
        assert v.values[0] == pytest.approx(cat / norm, abs=1e-12)
        assert v.values[1] == pytest.approx(dog_ / norm, abs=1e-12)
        assert v.values[0] == pytest.approx(0.81481, abs=1e-5)
        assert v.values[1] == pytest.approx(0.57973, abs=1e-5)

    def test_single_term_doc_normalizes_to_one(self):
        corpus = [doc("solo"), doc("noise")]
        vocab = build_vocabulary(corpus)
        idf = fit_idf(corpus, vocab)
        v = tfidf_transform(doc("solo", "solo"), vocab, idf)
        assert v.values.tolist() == [1.0]

    def test_all_oov_stays_zero(self, small_vocab):
        idf = fit_idf([doc("cat"), doc("dog")], small_vocab)
        assert tfidf_transform(doc("zebra"), small_vocab, idf).nnz == 0

    def test_idf_length_mismatch_rejected(self, small_vocab):
        with pytest.raises(DimensionMismatchError):
            tfidf_transform(doc("cat"), small_vocab, IdfWeights(idf=np.ones(1), n_docs=1))


_token = st.text(alphabet="abcdefg", min_size=3, max_size=6)
_docs = st.lists(
    st.lists(_token, max_size=12).map(lambda ts: CleanDoc(id="h", tokens=tuple(ts))),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150)
@given(_docs)
def test_nonzero_tfidf_vectors_have_unit_norm(corpus):
    vocab = build_vocabulary(corpus)
    idf = fit_idf(corpus, vocab)
    for d in corpus:
        v = tfidf_transform(d, vocab, idf)
        if v.nnz:
            assert abs(v.norm() - 1.0) <= 1e-9


@settings(max_examples=150)
@given(_docs)
def test_count_weights_are_integers_summing_to_kept_tokens(corpus):
    vocab = build_vocabulary(corpus)
    for d in corpus:
        v = count_transform(d, vocab)
        assert np.all(v.values == np.round(v.values))
        kept = sum(1 for t in d.tokens if t in vocab.term_to_index)
        assert v.values.sum() == kept


@settings(max_examples=50)
@given(_docs)
def test_transforms_bit_identical_across_runs(corpus):
    va = build_vocabulary(corpus)
    vb = build_vocabulary(list(corpus))
    assert va == vb
    ia, ib = fit_idf(corpus, va), fit_idf(corpus, vb)
    assert ia.idf.tobytes() == ib.idf.tobytes()
    for d in corpus:
        ta, tb = tfidf_transform(d, va, ia), tfidf_transform(d, vb, ib)
        assert ta.indices.tobytes() == tb.indices.tobytes()
        assert ta.values.tobytes() == tb.values.tobytes()


class TestSparseVector:
    def test_from_counts_sorts_and_drops_zeros(self):
        v = SparseVector.from_counts({5: 2.0, 1: 1.0, 3: 0.0}, dim=6)
        assert v.indices.tolist() == [1, 5]
        assert v.values.tolist() == [1.0, 2.0]

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError, match="increasing"):
            SparseVector(indices=np.array([3, 1]), values=np.array([1.0, 1.0]), dim=5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SparseVector(indices=np.array([7]), values=np.array([1.0]), dim=5)

    def test_rejects_stored_zeros_and_negatives(self):
        with pytest.raises(ValueError):
            SparseVector(indices=np.array([0]), values=np.array([0.0]), dim=2)
        with pytest.raises(ValueError):
            SparseVector(indices=np.array([0]), values=np.array([-1.0]), dim=2)

    def test_to_dense(self):
        v = SparseVector.from_counts({0: 1.0, 2: 3.0}, dim=4)
        assert v.to_dense().tolist() == [1.0, 0.0, 3.0, 0.0]


class TestStack:
    def test_shape_and_contents(self):
        vs = [SparseVector.from_counts({0: 1.0}, 3), SparseVector.from_counts({2: 2.0}, 3)]
        m = stack(vs)
        assert m.shape == (2, 3)
        assert m.toarray().tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]

    def test_all_empty_rows(self):
        vs = [SparseVector.from_counts({}, 3)] * 2
        assert stack(vs).nnz == 0

    def test_mixed_dims_rejected(self):
        vs = [SparseVector.from_counts({0: 1.0}, 3), SparseVector.from_counts({0: 1.0}, 4)]
        with pytest.raises(DimensionMismatchError):
            stack(vs)


# Reference per-document transforms, written out independently of featurize:
# a Counter per document, then the L2 norm of each document on its own.
def reference_count(d, vocab):
    counts = Counter(vocab.term_to_index[t] for t in d.tokens if t in vocab.term_to_index)
    return SparseVector.from_counts(counts, dim=vocab.size)


def reference_tfidf(d, vocab, idf):
    counts = reference_count(d, vocab)
    if counts.nnz == 0:
        return counts
    weighted = counts.values * idf.idf[counts.indices]
    weighted = weighted / np.sqrt(np.sum(weighted**2))
    return SparseVector(indices=counts.indices, values=weighted, dim=vocab.size)


def assert_same_csr(a, b):
    assert a.shape == b.shape
    assert a.indptr.tolist() == b.indptr.tolist()
    assert a.indices.tolist() == b.indices.tolist()
    assert a.data.tobytes() == b.data.tobytes()


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
    for weights, reference in (
        (None, lambda d: reference_count(d, vocab)),
        (idf, lambda d: reference_tfidf(d, vocab, idf)),
    ):
        expected = [reference(d) for d in scored]
        assert_same_csr(featurize(scored, vocab, weights), stack(expected))
        for d, want in zip(scored, expected):
            got = count_transform(d, vocab) if weights is None else tfidf_transform(d, vocab, idf)
            assert got.indices.tolist() == want.indices.tolist()
            assert got.values.tobytes() == want.values.tobytes()


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
