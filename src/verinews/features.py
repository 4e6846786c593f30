"""Vocabulary construction and sparse count / TF-IDF feature matrices.

The vocabulary indexes every distinct training token in lexicographic
order, so two runs over the same corpus (in any document order) produce
bit-identical feature matrices. IDF uses the smoothed form
ln((1 + N) / (1 + df)) + 1 and TF-IDF vectors are L2-normalized.

Training takes its vocabulary, IDF and matrix from one count matrix over
every distinct token (fit_features). A row stores each column at most
once, so column entry counts are the document frequencies, and df pruning
drops columns from that matrix and renumbers the rest.

A corpus is one CSR matrix, and the two products the models need, row
dot products and per-class column sums, are np.bincount kernels over its
arrays. bincount adds in storage order, so each sum is the sequential sum
that scipy.sparse computes, bit for bit, without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import DimensionMismatchError, VocabularyError
from .textprep import CleanDoc


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
    increasing, with weights data[indptr[i]:indptr[i+1]]. The kernels below
    read only these four fields, so they accept a scipy csr_matrix too.
    """

    data: np.ndarray  # float64, length nnz
    indices: np.ndarray  # int64, length nnz
    indptr: np.ndarray  # int64, length rows + 1
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[row_ids(self), self.indices] = self.data
        return dense


def row_ids(X: CSR) -> np.ndarray:
    """The row of each stored entry, in storage order."""
    return np.repeat(np.arange(X.shape[0], dtype=np.int64), np.diff(X.indptr))


def row_dots(X: CSR, W: np.ndarray) -> np.ndarray:
    """X @ W.T for a (k, V) W, or X @ W for one length-V W.

    Each row sums its entries in storage order, starting from 0.0.
    """
    rows, n = row_ids(X), X.shape[0]
    dots = [
        np.bincount(rows, weights=X.data * w[X.indices], minlength=n) for w in np.atleast_2d(W)
    ]
    return dots[0] if W.ndim == 1 else np.column_stack(dots)


def class_sums(X: CSR, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(n_classes, V) sums of the rows of each class, added in row order."""
    dim = X.shape[1]
    keys = labels[row_ids(X)] * dim + X.indices
    sums = np.bincount(keys, weights=X.data, minlength=n_classes * dim)
    return sums.reshape(n_classes, dim)


@dataclass(frozen=True)
class IdfWeights:
    """Inverse document frequencies, one per vocabulary column."""

    idf: np.ndarray  # float64, length = vocabulary size
    n_docs: int

    def __post_init__(self):
        idf = np.asarray(self.idf, dtype=np.float64)
        idf.setflags(write=False)
        object.__setattr__(self, "idf", idf)


def build_vocabulary(
    corpus: list[CleanDoc],
    min_df: int = 1,
    max_df: int | None = None,
    max_terms: int | None = None,
) -> Vocabulary:
    """The vocabulary of fit_features."""
    vocab, _, _ = fit_features(corpus, False, min_df, max_df, max_terms)
    return vocab


def fit_idf(corpus: list[CleanDoc], vocab: Vocabulary) -> IdfWeights:
    """idf(t) = ln((1 + N) / (1 + df(t))) + 1, so idf >= 1 always.

    df counts documents containing the term at least once; terms in the
    vocabulary but absent from the corpus get df = 0.
    """
    _, indices, _ = _featurize_arrays(corpus, vocab, None)
    return _idf(np.bincount(indices, minlength=vocab.size), len(corpus))


def fit_features(
    corpus: list[CleanDoc],
    tfidf: bool,
    min_df: int = 1,
    max_df: int | None = None,
    max_terms: int | None = None,
) -> tuple[Vocabulary, IdfWeights | None, CSR]:
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
    terms = sorted(set(chain.from_iterable(d.tokens for d in corpus)))
    vocab = Vocabulary(term_to_index={t: i for i, t in enumerate(terms)})
    indptr, indices, data = _featurize_arrays(corpus, vocab, None)
    df = np.bincount(indices, minlength=vocab.size)

    keep = df >= min_df
    if max_df is not None:
        keep &= df <= max_df
    if max_terms is not None and np.count_nonzero(keep) > max_terms:
        # Columns are in term order, so the stable sort breaks df ties on the term.
        candidates = np.flatnonzero(keep)
        keep[:] = False
        keep[candidates[np.argsort(-df[candidates], kind="stable")[:max_terms]]] = True
    if not keep.all():
        # Renumbering the kept columns in order keeps each row sorted.
        kept_entries = keep[indices]
        indptr = np.concatenate(([0], np.cumsum(kept_entries)))[indptr]
        indices = (np.cumsum(keep) - 1)[indices[kept_entries]]
        data = data[kept_entries]
        terms = [t for t, k in zip(terms, keep.tolist()) if k]
        vocab = Vocabulary(term_to_index={t: i for i, t in enumerate(terms)})
        df = df[keep]

    idf = None
    if tfidf:
        idf = _idf(df, len(corpus))
        _scale_rows(indptr, indices, data, idf)
    X = CSR(data=data, indices=indices, indptr=indptr, shape=(len(corpus), vocab.size))
    return vocab, idf, X


def _idf(df: np.ndarray, n_docs: int) -> IdfWeights:
    idf = np.log((1.0 + n_docs) / (1.0 + df.astype(np.float64))) + 1.0
    return IdfWeights(idf=idf, n_docs=n_docs)


def featurize(
    clean: list[CleanDoc], vocab: Vocabulary, idf: IdfWeights | None = None
) -> CSR:
    """One row per document: raw term counts, or with ``idf`` the counts
    scaled by IDF and L2-normalized. Out-of-vocabulary tokens are dropped
    and a row with no vocabulary term stays empty.
    """
    indptr, indices, data = _featurize_arrays(clean, vocab, idf)
    return CSR(data=data, indices=indices, indptr=indptr, shape=(len(clean), vocab.size))


def _featurize_arrays(
    clean: list[CleanDoc], vocab: Vocabulary, idf: IdfWeights | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (indptr, indices, data) arrays for featurize."""
    if idf is not None and idf.idf.shape[0] != vocab.size:
        raise DimensionMismatchError(
            f"idf length {idf.idf.shape[0]} != vocabulary size {vocab.size}"
        )
    n_docs, dim = len(clean), vocab.size
    lengths = [len(d.tokens) for d in clean]
    tokens = chain.from_iterable(d.tokens for d in clean)
    ids = np.fromiter(
        map(vocab.term_to_index.get, tokens, repeat(-1)), dtype=np.int64, count=sum(lengths)
    )
    rows = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    # Sorted row * dim + id keys order the entries by row, then by column.
    keys, counts = np.unique((rows * dim + ids)[ids >= 0], return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n_docs + 1, dtype=np.int64) * dim)
    indices = keys % max(dim, 1)
    data = counts.astype(np.float64)
    if idf is not None:
        _scale_rows(indptr, indices, data, idf)
    return indptr, indices, data


def _scale_rows(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, idf: IdfWeights):
    """Scale counts by IDF and L2-normalize each row, in place."""
    data *= idf.idf[indices]
    # Each norm is summed over its own row, as a one-row sum would be;
    # a segmented reduction changes the last bits of some norms.
    squares = data**2
    bounds = zip(indptr[:-1].tolist(), indptr[1:].tolist())
    norms = np.sqrt([np.add.reduce(squares[lo:hi]) for lo, hi in bounds])
    data /= np.repeat(norms, np.diff(indptr))


# One-row matrices and their stack, for callers that featurize document by
# document; the library itself featurizes a corpus at once.


def count_transform(doc: CleanDoc, vocab: Vocabulary) -> CSR:
    """featurize([doc], vocab)."""
    return featurize([doc], vocab)


def tfidf_transform(doc: CleanDoc, vocab: Vocabulary, idf: IdfWeights) -> CSR:
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
    # Row lengths are the steps along the joined indptr arrays, less the
    # step from each matrix's last entry to the next matrix's first.
    n_rows = [X.shape[0] for X in rows]
    steps = np.diff(np.concatenate([X.indptr for X in rows]))
    lengths = np.delete(steps, np.cumsum(n_rows[:-1], dtype=np.int64) + np.arange(len(rows) - 1))
    indptr = np.concatenate((np.zeros(1, np.int64), np.cumsum(lengths)))
    indices = np.concatenate([X.indices for X in rows])
    data = np.concatenate([X.data for X in rows])
    return CSR(data=data, indices=indices, indptr=indptr, shape=(len(lengths), dim))
