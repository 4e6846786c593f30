"""Vocabulary construction and sparse count / TF-IDF document vectors.

The vocabulary indexes every distinct training token in lexicographic
order, so two runs over the same corpus (in any document order) produce
bit-identical feature matrices. IDF uses the smoothed form
ln((1 + N) / (1 + df)) + 1 and TF-IDF vectors are L2-normalized.

A corpus is one CSR matrix, and the two products the models need, row
dot products and per-class column sums, are np.bincount kernels over its
arrays. bincount adds in storage order, so each sum is the sequential sum
that scipy.sparse computes, bit for bit, without importing scipy.
"""

from __future__ import annotations

from collections import Counter
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
class SparseVector:
    """Strictly increasing (index, weight) pairs; no explicit zeros stored."""

    indices: np.ndarray  # int64
    values: np.ndarray  # float64
    dim: int

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if indices.size:
            if indices[0] < 0 or indices[-1] >= self.dim:
                raise ValueError("index out of range for dim")
            if (indices[1:] <= indices[:-1]).any():
                raise ValueError("indices must be strictly increasing")
        if (values <= 0.0).any():
            raise ValueError("weights must be positive (zeros are not stored)")
        indices.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_counts(cls, counts: dict[int, float], dim: int) -> "SparseVector":
        items = sorted((i, w) for i, w in counts.items() if w != 0.0)
        indices = np.fromiter((i for i, _ in items), dtype=np.int64, count=len(items))
        values = np.fromiter((w for _, w in items), dtype=np.float64, count=len(items))
        return cls(indices=indices, values=values, dim=dim)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        dense[self.indices] = self.values
        return dense

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2)))


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
    """Index every distinct corpus token lexicographically.

    Pruning is off by default. min_df/max_df bound the term's document
    frequency (absolute counts, inclusive); max_terms keeps the highest-df
    terms, breaking ties lexicographically so the result stays independent
    of document order. A bound below 1 raises VocabularyError.
    """
    for param, value in (("min_df", min_df), ("max_df", max_df), ("max_terms", max_terms)):
        if value is not None and value < 1:
            raise VocabularyError(param, value)
    df: Counter[str] = Counter()
    for doc in corpus:
        df.update(set(doc.tokens))
    kept = [
        t for t, n in df.items() if n >= min_df and (max_df is None or n <= max_df)
    ]
    if max_terms is not None and len(kept) > max_terms:
        kept.sort(key=lambda t: (-df[t], t))
        kept = kept[:max_terms]
    return Vocabulary(term_to_index={t: i for i, t in enumerate(sorted(kept))})


def fit_idf(corpus: list[CleanDoc], vocab: Vocabulary) -> IdfWeights:
    """idf(t) = ln((1 + N) / (1 + df(t))) + 1, so idf >= 1 always.

    df counts documents containing the term at least once; terms in the
    vocabulary but absent from the corpus get df = 0.
    """
    n_docs = len(corpus)
    df = np.zeros(vocab.size, dtype=np.float64)
    lookup = vocab.term_to_index
    for doc in corpus:
        seen = {lookup[t] for t in set(doc.tokens) if t in lookup}
        if seen:
            df[np.fromiter(seen, dtype=np.int64, count=len(seen))] += 1.0
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
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


def count_transform(doc: CleanDoc, vocab: Vocabulary) -> SparseVector:
    """Raw term counts of one document; see featurize."""
    _, indices, data = _featurize_arrays([doc], vocab, None)
    return SparseVector(indices=indices, values=data, dim=vocab.size)


def tfidf_transform(doc: CleanDoc, vocab: Vocabulary, idf: IdfWeights) -> SparseVector:
    """L2-normalized TF-IDF weights of one document; see featurize."""
    _, indices, data = _featurize_arrays([doc], vocab, idf)
    return SparseVector(indices=indices, values=data, dim=vocab.size)


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
        data *= idf.idf[indices]
        # Each norm is summed over its own row, as a one-row sum would be;
        # a segmented reduction changes the last bits of some norms.
        squares = data**2
        bounds = zip(indptr[:-1].tolist(), indptr[1:].tolist())
        norms = np.sqrt([np.add.reduce(squares[lo:hi]) for lo, hi in bounds])
        data /= np.repeat(norms, np.diff(indptr))
    return indptr, indices, data


def stack(vectors: list[SparseVector]) -> CSR:
    """Stack per-document vectors into one CSR matrix for batched math."""
    if not vectors:
        raise ValueError("cannot stack an empty vector list")
    dim = vectors[0].dim
    for v in vectors:
        if v.dim != dim:
            raise DimensionMismatchError(f"mixed dims in stack: {v.dim} != {dim}")
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([v.nnz for v in vectors])
    indices = np.concatenate([v.indices for v in vectors])
    data = np.concatenate([v.values for v in vectors])
    return CSR(data=data, indices=indices, indptr=indptr, shape=(len(vectors), dim))
