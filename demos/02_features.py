"""Vocabulary construction plus count and TF-IDF matrices on a tiny corpus.

Run: python demos/02_features.py
"""

import numpy as np

from verinews import build_vocabulary, featurize, fit_idf
from verinews.textprep import CleanDoc

corpus = [
    CleanDoc(id="d1", tokens=("cat", "dog")),
    CleanDoc(id="d2", tokens=("dog",)),
    CleanDoc(id="d3", tokens=("dog", "fish", "fish")),
]

# Terms index in lexicographic order, so the matrix layout is independent
# of document order.
vocab = build_vocabulary(corpus)
print("vocabulary:", vocab.term_to_index)

# One CSR row per document: row i holds columns indices[indptr[i]:indptr[i+1]].
counts = featurize(corpus, vocab)
for i, doc in enumerate(corpus):
    lo, hi = counts.indptr[i], counts.indptr[i + 1]
    row = dict(zip(counts.indices[lo:hi].tolist(), counts.data[lo:hi].tolist()))
    print(f"counts {doc.id}: {row}")
print()

# Smoothed IDF: ln((1+N)/(1+df)) + 1. A term in every document gets
# exactly 1.0; rarer terms score higher.
idf = fit_idf(corpus, vocab)
for term, i in vocab.term_to_index.items():
    print(f"idf[{term}] = {idf[i]:.6f}")
print()

# TF-IDF rows are L2-normalized, so every non-empty document sits on
# the unit sphere.
for doc, dense in zip(corpus, featurize(corpus, vocab, idf).toarray()):
    print(f"tfidf {doc.id}: {np.round(dense, 5).tolist()}  |norm {np.linalg.norm(dense):.9f}")

# Out-of-vocabulary tokens are silently dropped at transform time: the
# vocabulary is frozen after fitting.
oov = featurize([CleanDoc(id="oov", tokens=("zebra",))], vocab, idf)
print("all-OOV doc nnz:", oov.nnz)
