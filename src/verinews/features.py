"""Vocabulary construction and sparse count / TF-IDF feature matrices.

The vocabulary indexes every distinct training token in lexicographic
order, so two runs over the same corpus (in any document order) produce
bit-identical feature matrices. IDF uses the smoothed form
ln((1 + N) / (1 + df)) + 1 and TF-IDF vectors are L2-normalized.

Every function here reads a corpus as a textprep.IdCorpus, whose array("q")
token ids np.asarray views without a copy; a list of CleanDoc is converted
in one place (_as_ids). A matrix maps each lemma, not each token, to a column.
Every matrix comes from featurize. A row stores each column at most once,
so a count matrix's column entry counts are the document frequencies:
fit_features reads them from featurize over every distinct lemma, and when
df pruning drops terms it featurizes again over the kept ones; fit_idf is
the IDF of featurize's counts, a read-only float64 vector with one value
per column (a bundle keeps the training document count as n_train_docs).

A corpus is one CSR matrix, checked once when it is built. The models
need two products of it: row dot products X @ w (every score, the SGD
epoch objective, the LR fit) and column dot products X.T @ u (the LR fit,
and NB's per-class sums X.T @ one_hot). Both, and toarray, run through
scipy's compiled sparsetools. Only that one extension file is loaded,
never the scipy package: importing scipy.sparse takes about
0.15 s after numpy, most of it spent loading numpy.f2py, numpy.ma and
numpy.testing. Every product adds in storage order from 0.0, so each sum is
the one scipy.sparse computes, bit for bit. The kernels read raw memory, so
a matrix's indices are checked when it is built, and each vector's length
on each call.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat

import numpy as np

from .errors import DimensionMismatchError, VocabularyError
from .textprep import CleanDoc, IdCorpus

Corpus = IdCorpus | list[CleanDoc]

_INDEX_DTYPES = {np.dtype(np.int32), np.dtype(np.int64)}


@dataclass(frozen=True)
class Vocabulary:
    """term -> column index, indices 0..size-1 in lexicographic term order."""

    term_to_index: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.term_to_index)

    def terms(self) -> list[str]:
        """Terms in index order."""
        ordered = [""] * self.size
        for term, i in self.term_to_index.items():
            ordered[i] = term
        return ordered


@dataclass(frozen=True)
class CSR:
    """A compressed-sparse-row matrix of float64 weights.

    Row i stores columns indices[indptr[i]:indptr[i+1]], strictly
    increasing, with weights data[indptr[i]:indptr[i+1]]. Construction
    checks what the compiled kernels rely on (dtypes, indptr rising from 0
    to nnz, every column inside the shape; not the order within a row) and
    keeps read-only views of indices and indptr, so the checks stay true.
    """

    data: np.ndarray  # float64, length nnz
    indices: np.ndarray  # int32 or int64, length nnz
    indptr: np.ndarray  # int32 or int64, length rows + 1
    shape: tuple[int, int]

    def __post_init__(self):
        data, indices, indptr = self.data, self.indices, self.indptr
        rows, cols = self.shape
        if data.dtype != np.float64 or not {indices.dtype, indptr.dtype} <= _INDEX_DTYPES:
            raise ValueError(
                f"CSR needs float64 data and int32/int64 indices, got {data.dtype}, "
                f"{indices.dtype} and {indptr.dtype}"
            )
        if not data.ndim == indices.ndim == indptr.ndim == 1 or rows < 0 or cols < 0:
            raise ValueError(f"CSR arrays must be 1-D and its shape non-negative, got {self.shape}")
        nnz = len(indices)
        if len(indptr) != rows + 1 or len(data) != nnz:
            raise ValueError(
                f"CSR of shape {self.shape} with {len(indptr)} indptr, {nnz} indices and {len(data)} weights"
            )
        if indptr[0] != 0 or indptr[-1] != nnz or np.any(indptr[1:] < indptr[:-1]):
            raise ValueError(f"CSR indptr must not decrease from 0 to {nnz}")
        if nnz and not (indices.min() >= 0 and indices.max() < cols):
            raise ValueError(f"CSR column index outside [0, {cols})")
        for name, array_ in (("indices", indices), ("indptr", indptr)):
            view = array_.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        _sparsetools().csr_todense(*self.shape, self.indptr, self.indices, self.data, dense)
        return dense


def row_dots(X: CSR, W: np.ndarray) -> np.ndarray:
    """X @ W.T for a (k, V) W, or X @ W for one length-V W; a W of another
    width raises DimensionMismatchError.

    Each row sums its entries in storage order, starting from 0.0.
    """
    n, dim = _checked(X).shape
    W = np.asarray(W, dtype=np.float64)
    if W.ndim not in (1, 2) or W.shape[-1] != dim:
        raise DimensionMismatchError(f"weights of shape {W.shape} for {dim} feature columns")
    if W.ndim == 1:
        out = np.zeros(n)
        _sparsetools().csr_matvec(n, dim, X.indptr, X.indices, X.data, np.ascontiguousarray(W), out)
    else:
        out = np.zeros((n, len(W)))
        # One row of W.T per column, as the kernel reads its operand.
        operand = np.ascontiguousarray(W.T)
        _sparsetools().csr_matvecs(n, dim, len(W), X.indptr, X.indices, X.data, operand, out)
    return out


def column_dots(X: CSR, U: np.ndarray) -> np.ndarray:
    """X.T @ U for an (n, k) U, or X.T @ u for one length-n u; a U of
    another height raises DimensionMismatchError.

    Each column sums its entries in storage order, starting from 0.0.
    """
    n, dim = _checked(X).shape
    U = np.ascontiguousarray(U, dtype=np.float64)
    if U.ndim not in (1, 2) or U.shape[0] != n:
        raise DimensionMismatchError(f"operand of shape {U.shape} for {n} rows")
    # The arrays of X read as column-compressed are those of X.T.
    if U.ndim == 1:
        out = np.zeros(dim)
        _sparsetools().csc_matvec(dim, n, X.indptr, X.indices, X.data, U, out)
    else:
        out = np.zeros((dim, U.shape[1]))
        _sparsetools().csc_matvecs(dim, n, U.shape[1], X.indptr, X.indices, X.data, U, out)
    return out


def _checked(X: CSR) -> CSR:
    # Only a CSR has had its indices checked against its shape.
    if not isinstance(X, CSR):
        raise TypeError(f"expected a verinews CSR matrix, got {type(X).__name__}")
    return X


_SPARSETOOLS = "scipy.sparse._sparsetools"


@functools.cache
def _sparsetools():
    """scipy's compiled sparse kernels: the module scipy.sparse imports, or
    else its extension file, loaded on its own (see the module docstring)."""
    if _SPARSETOOLS in sys.modules:
        return sys.modules[_SPARSETOOLS]
    directory = _scipy_sparse_dir()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_sparsetools" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_SPARSETOOLS, loader))
            loader.exec_module(module)
            return module
    from importlib.metadata import version  # only this error pays its import

    raise ImportError(f"scipy {version('scipy')} has no _sparsetools extension in {directory}")


def _scipy_sparse_dir() -> str:
    """The directory of the scipy.sparse package, found without importing it."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed; verinews needs its compiled sparse kernels")
    return os.path.join(spec.submodule_search_locations[0], "sparse")


def _as_ids(corpus: Corpus) -> IdCorpus:
    """The corpus as token ids; a list of CleanDoc is converted here."""
    if isinstance(corpus, IdCorpus):
        return corpus
    lemma_ids = defaultdict(count().__next__)
    tokens = chain.from_iterable(d.tokens for d in corpus)
    # array() fills from a list faster than from an iterator.
    ids = array("q", list(map(lemma_ids.__getitem__, tokens)))
    doc_ptr = array("q", list(accumulate((len(d.tokens) for d in corpus), initial=0)))
    return IdCorpus(lemmas=list(lemma_ids), ids=ids, doc_ptr=doc_ptr)


def build_vocabulary(
    corpus: Corpus,
    min_df: int = 1,
    max_df: int | None = None,
    max_terms: int | None = None,
) -> Vocabulary:
    """The vocabulary of fit_features."""
    vocab, _, _ = fit_features(corpus, False, min_df, max_df, max_terms)
    return vocab


def fit_idf(corpus: Corpus, vocab: Vocabulary) -> np.ndarray:
    """idf(t) = ln((1 + N) / (1 + df(t))) + 1, so idf >= 1 always, as a
    read-only float64 vector with one value per vocabulary column.

    df counts documents containing the term at least once; terms in the
    vocabulary but absent from the corpus get df = 0.
    """
    X = featurize(corpus, vocab)
    return _idf(np.bincount(X.indices, minlength=vocab.size), X.shape[0])


def fit_features(
    corpus: Corpus,
    tfidf: bool,
    min_df: int = 1,
    max_df: int | None = None,
    max_terms: int | None = None,
) -> tuple[Vocabulary, np.ndarray | None, CSR]:
    """Vocabulary, IDF (with ``tfidf``, else None) and featurize's matrix
    of a training corpus.

    The vocabulary indexes every distinct corpus token lexicographically.
    Pruning is off by default. min_df/max_df bound the term's document
    frequency (absolute counts, inclusive); max_terms keeps the highest-df
    terms, breaking ties lexicographically so the result stays independent
    of document order. A bound below 1 raises VocabularyError.
    """
    for param, value in (("min_df", min_df), ("max_df", max_df), ("max_terms", max_terms)):
        if value is not None and value < 1:
            raise VocabularyError(param, value)
    corpus = _as_ids(corpus)
    # A lemma no document keeps has df 0, so min_df drops it below.
    terms = sorted(corpus.lemmas)
    vocab = Vocabulary(term_to_index={t: i for i, t in enumerate(terms)})
    X = featurize(corpus, vocab)
    df = np.bincount(X.indices, minlength=vocab.size)

    keep = df >= min_df
    if max_df is not None:
        keep &= df <= max_df
    if max_terms is not None and np.count_nonzero(keep) > max_terms:
        # Columns are in term order, so the stable sort breaks df ties on the term.
        candidates = np.flatnonzero(keep)
        keep[:] = False
        keep[candidates[np.argsort(-df[candidates], kind="stable")[:max_terms]]] = True
    if not keep.all():
        vocab = Vocabulary(term_to_index={t: i for i, t in enumerate(compress(terms, keep.tolist()))})
        X = featurize(corpus, vocab)
        df = df[keep]

    idf = _idf(df, len(corpus)) if tfidf else None
    if idf is not None:
        # CSR checks only the weights' dtype and length, so they scale in place.
        _scale_rows(X.indptr, X.indices, X.data, idf)
    return vocab, idf, X


def _idf(df: np.ndarray, n_docs: int) -> np.ndarray:
    idf = np.log((1.0 + n_docs) / (1.0 + df.astype(np.float64))) + 1.0
    idf.setflags(write=False)
    return idf


def featurize(corpus: Corpus, vocab: Vocabulary, idf: np.ndarray | None = None) -> CSR:
    """One row per document: raw term counts, or with ``idf`` (one value
    per vocabulary column) the counts scaled by IDF and L2-normalized.
    Out-of-vocabulary tokens are dropped and a row with no vocabulary term
    stays empty.
    """
    if idf is not None and np.shape(idf) != (vocab.size,):
        raise DimensionMismatchError(f"idf of shape {np.shape(idf)} for vocabulary size {vocab.size}")
    corpus = _as_ids(corpus)
    n_docs, dim = len(corpus), vocab.size
    # Each lemma's column, or -1 out of vocabulary, then each token's.
    lemmas = corpus.lemmas
    column = np.fromiter(map(vocab.term_to_index.get, lemmas, repeat(-1)), np.int64, len(lemmas))
    cols = column[np.asarray(corpus.ids)]
    doc_ptr = np.asarray(corpus.doc_ptr)
    rows = np.repeat(np.arange(n_docs, dtype=np.int64), doc_ptr[1:] - doc_ptr[:-1])
    # Sorted row * dim + column keys order the entries by row, then by column.
    keys, counts = np.unique((rows * dim + cols)[cols >= 0], return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n_docs + 1, dtype=np.int64) * dim)
    indices = keys % max(dim, 1)
    data = counts.astype(np.float64)
    if idf is not None:
        _scale_rows(indptr, indices, data, idf)
    return CSR(data=data, indices=indices, indptr=indptr, shape=(n_docs, dim))


def _scale_rows(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, idf: np.ndarray):
    """Scale counts by IDF and L2-normalize each row, in place."""
    data *= np.asarray(idf, dtype=np.float64)[indices]
    # Each norm is summed over its own row, as a one-row sum would be (a
    # segmented reduction changes the last bits of some norms). The rows
    # of one length are summed together, as the rows of a 2-D array.
    squares = data**2
    lengths = indptr[1:] - indptr[:-1]
    norms = np.empty(len(lengths))
    for length in set(lengths.tolist()):
        rows = (lengths == length).nonzero()[0]
        norms[rows] = np.add.reduce(squares[indptr[rows, None] + np.arange(length)], axis=1)
    data /= np.repeat(np.sqrt(norms), lengths)


# One-row matrices and their stack, for callers that featurize document by
# document; the library itself featurizes a corpus at once.


def count_transform(doc: CleanDoc, vocab: Vocabulary) -> CSR:
    """featurize([doc], vocab)."""
    return featurize([doc], vocab)


def tfidf_transform(doc: CleanDoc, vocab: Vocabulary, idf: np.ndarray) -> CSR:
    """featurize([doc], vocab, idf)."""
    return featurize([doc], vocab, idf)


def stack(rows: list[CSR]) -> CSR:
    """The matrices' rows, in order, as one matrix."""
    if not rows:
        raise ValueError("cannot stack an empty list of rows")
    dim = rows[0].shape[1]
    for X in rows:
        if X.shape[1] != dim:
            raise DimensionMismatchError(f"mixed column counts in stack: {X.shape[1]} != {dim}")
    lengths = np.concatenate([np.diff(X.indptr) for X in rows])
    indptr = np.concatenate((np.zeros(1, np.int64), np.cumsum(lengths)))
    indices = np.concatenate([X.indices for X in rows])
    data = np.concatenate([X.data for X in rows])
    return CSR(data=data, indices=indices, indptr=indptr, shape=(len(lengths), dim))
