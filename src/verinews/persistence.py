"""Versioned binary serialization of the full inference bundle.

A bundle is self-contained: it embeds the stop-word list and lemma table
(not paths to them), the vocabulary, optional IDF weights, and the model
parameters. Encoding is deterministic (sorted maps, raw little-endian
IEEE-754 doubles) so the same bundle always produces identical bytes, and
a trailing SHA-256 digest detects any corruption. The exact layout is
documented byte-by-byte in docs/bundle-format.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BundleIntegrityError, BundleValidationError, BundleVersionError
from .features import IdfWeights, Vocabulary
from .models import KIND_HINGE, KIND_LOGISTIC, KIND_NB, N_CLASSES, LinearModel, NbModel
from .textprep import PipelineConfig

MAGIC = b"VNEWSBDL"
FORMAT_VERSION = 1
CHECKSUM_LEN = 32

FEATURE_COUNT = "count"
FEATURE_TFIDF = "tfidf"

_SECTION_META = 1
_SECTION_PIPELINE = 2
_SECTION_VOCAB = 3
_SECTION_IDF = 4
_SECTION_MODEL = 5

_MODEL_CODES = {KIND_NB: 0, KIND_LOGISTIC: 1, KIND_HINGE: 2}
_MODEL_NAMES = {code: name for name, code in _MODEL_CODES.items()}


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to score new documents with a trained model."""

    pipeline: PipelineConfig
    vocab: Vocabulary
    idf: IdfWeights | None
    model: NbModel | LinearModel
    feature_kind: str
    n_train_docs: int
    created_at: int | None = None  # epoch seconds; None = not recorded

    def __post_init__(self):
        if self.feature_kind not in (FEATURE_COUNT, FEATURE_TFIDF):
            raise BundleValidationError("feature_kind", f"unknown kind {self.feature_kind!r}")
        if (self.idf is not None) != (self.feature_kind == FEATURE_TFIDF):
            raise BundleValidationError(
                "idf", f"idf must be present exactly when feature_kind is {FEATURE_TFIDF!r}"
            )

    @property
    def model_kind(self) -> str:
        return self.model.kind

    @property
    def pipeline_digest(self) -> str:
        return self.pipeline.digest()


def save_bundle_bytes(bundle: ModelBundle) -> bytes:
    payload = b"".join(
        _section(tag, body)
        for tag, body in (
            (_SECTION_META, _encode_meta(bundle)),
            (_SECTION_PIPELINE, _encode_pipeline(bundle.pipeline)),
            (_SECTION_VOCAB, _encode_vocab(bundle.vocab)),
            (_SECTION_IDF, _encode_idf(bundle.idf)),
            (_SECTION_MODEL, _encode_model(bundle.model)),
        )
        if body is not None
    )
    head = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload)) + payload
    return head + hashlib.sha256(head).digest()


def write_bundle(bundle: ModelBundle, path: str | Path) -> None:
    Path(path).write_bytes(save_bundle_bytes(bundle))


def load_bundle(blob: bytes) -> ModelBundle:
    """Exact inverse of save_bundle_bytes; re-validates every invariant.

    Fails closed on any bytes that the decoded bundle would not save back
    to: sections out of order, repeated or unknown, unread bytes in a
    section, metadata JSON not in its compact sorted form, and fields
    whose decoded value would save differently.
    """
    reader = _Reader(blob)

    if reader.take(len(MAGIC), "magic") != MAGIC:
        raise BundleIntegrityError("not a model bundle (bad magic)")
    version, payload_len = struct.unpack("<IQ", reader.take(12, "header"))
    if version != FORMAT_VERSION:
        raise BundleVersionError(
            f"bundle format version {version} is not supported (only {FORMAT_VERSION})"
        )
    payload = reader.take(payload_len, "payload")
    digest = reader.take(CHECKSUM_LEN, "checksum")
    if reader.remaining():
        raise BundleIntegrityError("trailing bytes after checksum")
    if hashlib.sha256(blob[: len(blob) - CHECKSUM_LEN]).digest() != digest:
        raise BundleIntegrityError("checksum mismatch (corrupted bundle)")

    sections = _split_sections(payload)
    meta = _decode_meta(sections)
    pipeline = _decode_pipeline(sections)
    vocab = _decode_vocab(sections)
    idf = _decode_idf(sections)
    model = _decode_model(sections, meta["model_kind"])
    for tag, section in sections.items():
        if section.remaining():
            raise BundleIntegrityError(f"{section.remaining()} unread bytes in section {tag}")

    if pipeline.digest() != meta["pipeline_digest"]:
        raise BundleValidationError(
            "pipeline_digest", "embedded tables do not match the recorded digest"
        )
    bundle = ModelBundle(
        pipeline=pipeline,
        vocab=vocab,
        idf=idf,
        model=model,
        feature_kind=meta["feature_kind"],
        n_train_docs=meta["n_train_docs"],
        created_at=meta["created_at"],
    )
    _validate(bundle)
    return bundle


def read_bundle(path: str | Path) -> ModelBundle:
    return load_bundle(Path(path).read_bytes())


# --- encoding -----------------------------------------------------------


def _section(tag: int, body: bytes) -> bytes:
    return struct.pack("<IQ", tag, len(body)) + body


def _encode_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _encode_f64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _encode_meta(bundle: ModelBundle) -> bytes:
    meta = {
        "created_at": bundle.created_at,
        "feature_kind": bundle.feature_kind,
        "model_kind": bundle.model_kind,
        "n_train_docs": bundle.n_train_docs,
        "pipeline_digest": bundle.pipeline_digest,
    }
    return _meta_json(meta)


def _meta_json(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _encode_pipeline(cfg: PipelineConfig) -> bytes:
    out = io.BytesIO()
    out.write(_encode_str(cfg.numeric_placeholder))
    out.write(struct.pack("<I", cfg.min_token_len))
    stopwords = sorted(cfg.stopword_list)
    out.write(struct.pack("<I", len(stopwords)))
    for word in stopwords:
        out.write(_encode_str(word))
    lemmas = sorted(cfg.lemma_exceptions.items())
    out.write(struct.pack("<I", len(lemmas)))
    for surface, lemma in lemmas:
        out.write(_encode_str(surface))
        out.write(_encode_str(lemma))
    return out.getvalue()


def _encode_vocab(vocab: Vocabulary) -> bytes:
    out = io.BytesIO()
    out.write(struct.pack("<Q", vocab.size))
    for term in vocab.terms():
        out.write(_encode_str(term))
    return out.getvalue()


def _encode_idf(idf: IdfWeights | None) -> bytes | None:
    if idf is None:
        return None
    return struct.pack("<QQ", idf.n_docs, idf.idf.shape[0]) + _encode_f64(idf.idf)


def _encode_model(model: NbModel | LinearModel) -> bytes:
    out = io.BytesIO()
    out.write(struct.pack("<B", _MODEL_CODES[model.kind]))
    if isinstance(model, NbModel):
        out.write(struct.pack("<dQ", model.alpha, model.feature_log_prob.shape[1]))
        out.write(_encode_f64(model.class_log_prior))
        out.write(_encode_f64(model.feature_log_prob))
    else:
        out.write(struct.pack("<QB", model.weights.shape[1], int(model.converged)))
        out.write(_encode_f64(model.weights))
        out.write(_encode_f64(model.bias))
    return out.getvalue()


# --- decoding -----------------------------------------------------------


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise BundleIntegrityError(f"truncated bundle while reading {what}")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def take_str(self, what: str) -> str:
        (n,) = struct.unpack("<I", self.take(4, what))
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BundleIntegrityError(f"{what} is not valid UTF-8: {exc}") from exc

    def remaining(self) -> int:
        return len(self.blob) - self.pos


def _split_sections(payload: bytes) -> dict[int, _Reader]:
    """Section readers by id; ids must be known and strictly increasing."""
    reader = _Reader(payload)
    sections: dict[int, _Reader] = {}
    last = 0
    while reader.remaining():
        tag, length = struct.unpack("<IQ", reader.take(12, "section header"))
        if not last < tag <= _SECTION_MODEL:
            raise BundleIntegrityError(
                f"section {tag} after section {last}: unknown, repeated or out of order"
            )
        last = tag
        sections[tag] = _Reader(reader.take(length, f"section {tag}"))
    return sections


def _require(sections: dict[int, _Reader], tag: int, name: str) -> _Reader:
    if tag not in sections:
        raise BundleIntegrityError(f"missing {name} section")
    return sections[tag]


def _decode_meta(sections) -> dict:
    r = _require(sections, _SECTION_META, "metadata")
    raw = r.take(r.remaining(), "metadata")
    try:
        meta = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleIntegrityError(f"unreadable metadata: {exc}") from exc
    keys = ["created_at", "feature_kind", "model_kind", "n_train_docs", "pipeline_digest"]
    if not isinstance(meta, dict) or sorted(meta) != keys:
        raise BundleValidationError("metadata", f"must be an object with exactly the keys {keys}")
    if _meta_json(meta) != raw:
        raise BundleIntegrityError("metadata is not compact JSON with sorted keys")
    if not isinstance(meta["model_kind"], str) or meta["model_kind"] not in _MODEL_CODES:
        raise BundleValidationError("model_kind", f"unknown kind {meta['model_kind']!r}")
    if not _is_int(meta["n_train_docs"]) or meta["n_train_docs"] < 0:
        raise BundleValidationError("n_train_docs", "must be a non-negative integer")
    if meta["created_at"] is not None and not _is_int(meta["created_at"]):
        raise BundleValidationError("created_at", "must be an integer or null")
    return meta


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_pipeline(sections) -> PipelineConfig:
    r = _require(sections, _SECTION_PIPELINE, "pipeline")
    placeholder = r.take_str("placeholder")
    (min_len,) = struct.unpack("<I", r.take(4, "min_token_len"))
    (n_stop,) = struct.unpack("<I", r.take(4, "stopword count"))
    stopwords = [r.take_str("stopword") for _ in range(n_stop)]
    (n_lemma,) = struct.unpack("<I", r.take(4, "lemma count"))
    lemmas = [(r.take_str("lemma surface"), r.take_str("lemma target")) for _ in range(n_lemma)]
    _require_increasing("stopwords", stopwords)
    _require_increasing("lemma_exceptions", [surface for surface, _ in lemmas])
    try:
        return PipelineConfig(
            stopword_list=frozenset(stopwords),
            lemma_exceptions=dict(lemmas),
            numeric_placeholder=placeholder,
            min_token_len=min_len,
        )
    except ValueError as exc:
        raise BundleValidationError("pipeline", str(exc)) from exc


def _decode_vocab(sections) -> Vocabulary:
    r = _require(sections, _SECTION_VOCAB, "vocabulary")
    (count,) = struct.unpack("<Q", r.take(8, "vocabulary size"))
    terms = [r.take_str("vocabulary term") for _ in range(count)]
    _require_increasing("vocab", terms)
    return Vocabulary(term_to_index={t: i for i, t in enumerate(terms)})


def _require_increasing(field: str, strings: list[str]) -> None:
    """Strings saved sorted must load strictly increasing, so that no
    reordering or repeat re-saves to other bytes."""
    for a, b in zip(strings, strings[1:]):
        if not a < b:
            raise BundleValidationError(field, f"out of order: {a!r} !< {b!r}")


def _decode_idf(sections) -> IdfWeights | None:
    if _SECTION_IDF not in sections:
        return None
    r = sections[_SECTION_IDF]
    n_docs, size = struct.unpack("<QQ", r.take(16, "idf header"))
    idf = np.frombuffer(r.take(8 * size, "idf values"), dtype="<f8").copy()
    return IdfWeights(idf=idf, n_docs=n_docs)


def _decode_model(sections, expected_kind: str) -> NbModel | LinearModel:
    r = _require(sections, _SECTION_MODEL, "model")
    (code,) = struct.unpack("<B", r.take(1, "model kind"))
    kind = _MODEL_NAMES.get(code)
    if kind is None:
        raise BundleValidationError("model", f"unknown model code {code}")
    if kind != expected_kind:
        raise BundleValidationError(
            "model_kind", f"metadata says {expected_kind!r} but payload is {kind!r}"
        )
    if kind == KIND_NB:
        alpha, v = struct.unpack("<dQ", r.take(16, "nb header"))
        prior = np.frombuffer(r.take(8 * N_CLASSES, "nb priors"), dtype="<f8").copy()
        flp = np.frombuffer(r.take(8 * N_CLASSES * v, "nb log probs"), dtype="<f8").copy()
        return NbModel(
            class_log_prior=prior,
            feature_log_prob=flp.reshape(N_CLASSES, v),
            alpha=alpha,
        )
    v, converged = struct.unpack("<QB", r.take(9, "linear header"))
    if converged > 1:
        raise BundleValidationError("converged", f"flag byte {converged} is not 0 or 1")
    weights = np.frombuffer(r.take(8 * N_CLASSES * v, "weights"), dtype="<f8").copy()
    bias = np.frombuffer(r.take(8 * N_CLASSES, "bias"), dtype="<f8").copy()
    return LinearModel(
        weights=weights.reshape(N_CLASSES, v),
        bias=bias,
        kind=kind,
        converged=bool(converged),
    )


# --- invariant validation ------------------------------------------------


def _validate(bundle: ModelBundle) -> None:
    vocab_size = bundle.vocab.size
    if bundle.idf is not None:
        if bundle.idf.idf.shape[0] != vocab_size:
            raise BundleValidationError(
                "idf", f"length {bundle.idf.idf.shape[0]} != vocabulary size {vocab_size}"
            )
        if bundle.idf.idf.size and not np.all(bundle.idf.idf >= 1.0):
            raise BundleValidationError("idf", "values below 1.0")

    model = bundle.model
    if isinstance(model, NbModel):
        if not 0 < model.alpha < math.inf:
            raise BundleValidationError("alpha", f"{model.alpha} is not positive and finite")
        columns = model.feature_log_prob.shape[1]
        if columns != vocab_size:
            raise BundleValidationError(
                "model", f"nb has {columns} term columns != vocabulary size {vocab_size}"
            )
        # Written as `not <=` so that a NaN fails each test.
        prior_mass = float(np.sum(np.exp(model.class_log_prior)))
        if not abs(prior_mass - 1.0) <= 1e-9:
            raise BundleValidationError("class_log_prior", f"mass {prior_mass} != 1")
        if not np.all(np.isfinite(model.feature_log_prob)):
            raise BundleValidationError("feature_log_prob", "non-finite values")
        if vocab_size > 0:
            row_mass = np.sum(np.exp(model.feature_log_prob), axis=1)
            if not np.all(np.abs(row_mass - 1.0) <= 1e-9):
                raise BundleValidationError("feature_log_prob", "row mass != 1")
    else:
        if model.weights.shape != (N_CLASSES, vocab_size):
            raise BundleValidationError(
                "weights", f"shape {model.weights.shape} != (4, {vocab_size})"
            )
        if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))):
            raise BundleValidationError("weights", "non-finite parameters")
