"""Save a trained model to the binary bundle format and load it back.

The bundle embeds the full pipeline (stop words, lemma table), the
vocabulary, IDF weights, and model parameters, so scoring is reproducible
anywhere from the file alone. Encoding is deterministic and doubles are
stored as raw IEEE-754 bytes: scores after a round trip are bit-identical.

Run: python demos/04_model_bundles.py
"""

import tempfile
from pathlib import Path

import numpy as np

from verinews import Document, Label
from verinews.persistence import read_bundle, save_bundle_bytes, write_bundle
from verinews.pipeline import predict_bundle, train_bundle

train_docs = [
    Document(id="t1", title="officials confirmed the report", body="verified accurate evidence", label=Label.TRUE),
    Document(id="t2", title="staged hoax goes viral", body="fabricated conspiracy debunked", label=Label.FALSE),
    Document(id="t3", title="misleading claims spread", body="exaggerated and distorted mixture", label=Label.PARTIALLY_FALSE),
    Document(id="t4", title="blender review roundup", body="product opinion and recipe notes", label=Label.OTHER),
] * 3

bundle = train_bundle(train_docs, "nb", "count")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.bundle"
    write_bundle(bundle, path)
    print(f"bundle size: {path.stat().st_size} bytes")

    loaded = read_bundle(path)
    print(f"model kind: {loaded.model_kind}, features: {loaded.feature_kind}")
    print(f"vocabulary: {loaded.vocab.size} terms")
    print(f"pipeline digest: {loaded.pipeline_digest[:16]}...")

    # determinism: serializing the loaded bundle reproduces the file
    print("re-encoded identical:", save_bundle_bytes(loaded) == path.read_bytes())

    probe = [Document(id="p1", title="officials verified the evidence", body="")]
    before, s_before = predict_bundle(bundle, probe)
    after, s_after = predict_bundle(loaded, probe)
    print("prediction:", before[0].display_name)
    print("scores bit-identical after round trip:", np.array_equal(s_before, s_after))
