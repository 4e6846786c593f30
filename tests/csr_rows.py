"""CSR matrices written out row by row, for tests."""

import numpy as np

from verinews.features import CSR


def csr_rows(rows, dim):
    """One row per {column: weight} dict; zero weights are not stored."""
    entries = [sorted((c, w) for c, w in row.items() if w != 0) for row in rows]
    indptr = np.cumsum([0] + [len(e) for e in entries], dtype=np.int64)
    indices = np.array([c for e in entries for c, _ in e], dtype=np.int64)
    data = np.array([w for e in entries for _, w in e], dtype=np.float64)
    return CSR(data=data, indices=indices, indptr=indptr, shape=(len(rows), dim))


def from_scipy(M):
    """A scipy sparse matrix as a CSR over the same arrays."""
    M = M.tocsr()
    return CSR(data=M.data, indices=M.indices, indptr=M.indptr, shape=M.shape)
