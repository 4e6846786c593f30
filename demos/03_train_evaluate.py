"""Train all three classifiers on a synthetic labeled corpus and print the
evaluation reports, including the rendered confusion grid.

Run: python demos/03_train_evaluate.py
"""

import numpy as np

from verinews import Document, Label
from verinews.metrics import render_confusion, render_report
from verinews.pipeline import evaluate_bundle, train_bundle

# Synthetic four-class corpus: each class leans on its own vocabulary,
# with shared filler words to keep the problem non-trivial.
THEMES = {
    Label.FALSE: "hoax fabricated debunked conspiracy fake staged",
    Label.TRUE: "confirmed verified official accurate report evidence",
    Label.PARTIALLY_FALSE: "misleading exaggerated partially distorted mixture claims",
    Label.OTHER: "review product opinion lifestyle recipe advertisement",
}
FILLER = "news story people today said week country".split()

rng = np.random.default_rng(1)


def make_docs(n, start=0):
    docs = []
    for i in range(n):
        label = Label(int(rng.integers(0, 4)))
        theme = THEMES[label].split()
        # bleed a few words from another class so the task stays imperfect
        other = THEMES[Label(int(rng.integers(0, 4)))].split()
        words = (
            list(rng.choice(theme, size=4))
            + list(rng.choice(other, size=3))
            + list(rng.choice(FILLER, size=4))
        )
        rng.shuffle(words)
        docs.append(
            Document(
                id=f"doc{start + i}",
                title=" ".join(words[:4]),
                body=" ".join(words[4:]),
                label=label,
            )
        )
    return docs


train_docs = make_docs(200)
test_docs = make_docs(60, start=200)

for kind, features in (("nb", "count"), ("lr", "tfidf"), ("sgd", "tfidf")):
    bundle = train_bundle(train_docs, kind, features)
    report = evaluate_bundle(bundle, test_docs)
    print(f"=== {kind} on {features} features ===")
    print(f"vocabulary: {bundle.vocab.size} terms")
    print(render_report(report))
    print(render_confusion(report.confusion, f"{kind} confusion"))
    print()
