"""Versioned binary serialization of the full inference bundle.

A bundle is self-contained: it embeds the stop-word list and lemma table
(not paths to them), the vocabulary, optional IDF weights, and the model
parameters. The IDF section's document count is written from
n_train_docs and must equal it on load. Encoding is deterministic (sorted
maps, raw little-endian IEEE-754 doubles) so the same bundle always
produces identical bytes, and a trailing SHA-256 digest detects any
corruption. The exact layout is documented byte-by-byte in
docs/bundle-format.md.

Only the functions that encode or decode the vocabulary, IDF and model
sections load numpy, features and models, so read_pipeline gives a
bundle's cleaning config without numpy: the CLI reads it before it forks
the process that cleans the input (see cli).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import BundleIntegrityError, BundleValidationError, BundleVersionError
from .settings import FEATURE_COUNT, FEATURE_TFIDF, KIND_HINGE, KIND_LOGISTIC, KIND_NB
from .textprep import PipelineConfig

if TYPE_CHECKING:
    import numpy as np

    from .features import Vocabulary
    from .models import LinearModel

MAGIC = b"VNEWSBDL"
FORMAT_VERSION = 1
CHECKSUM_LEN = 32

_SECTION_META = 1
_SECTION_PIPELINE = 2
_SECTION_VOCAB = 3
_SECTION_IDF = 4
_SECTION_MODEL = 5

_U32 = struct.Struct("<I")

_MODEL_CODES = {KIND_NB: 0, KIND_LOGISTIC: 1, KIND_HINGE: 2}
_MODEL_NAMES = {code: name for name, code in _MODEL_CODES.items()}


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to score new documents with a trained model."""

    pipeline: PipelineConfig
    vocab: Vocabulary
    idf: np.ndarray | None  # read-only float64, one value per vocabulary term
    model: LinearModel
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
    """The bundle's bytes. They are loaded back before they are returned,
    so a bundle that load_bundle would reject raises its error here."""
    payload = b"".join(
        _section(tag, body)
        for tag, body in (
            (_SECTION_META, _encode_meta(bundle)),
            (_SECTION_PIPELINE, _encode_pipeline(bundle.pipeline)),
            (_SECTION_VOCAB, _encode_vocab(bundle.vocab)),
            (_SECTION_IDF, _encode_idf(bundle.idf, bundle.n_train_docs)),
            (_SECTION_MODEL, _encode_model(bundle.model)),
        )
        if body is not None
    )
    head = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload)) + payload
    blob = head + hashlib.sha256(head).digest()
    load_bundle(blob)
    return blob


def write_bundle(bundle: ModelBundle, path: str | Path) -> None:
    Path(path).write_bytes(save_bundle_bytes(bundle))


def load_bundle(blob: bytes) -> ModelBundle:
    """Exact inverse of save_bundle_bytes.

    Reads the sections in the order they are saved, each to its end, and
    checks each field while its section is read; the IDF section is read
    only when the metadata's feature kind is tfidf. Fails closed on any
    bytes that the decoded bundle would not save back to: a section
    unknown, repeated, missing or out of order, unread bytes in a section
    or after the model section, metadata JSON not in its compact sorted
    form, and fields whose decoded value would save differently. Metadata
    that json cannot parse within Python's recursion and integer-digit
    limits is an integrity error. A blob with several faults reports the
    first one in byte order, as a BundleIntegrityError or a
    BundleValidationError.
    """
    payload, meta, pipeline = _read_head(blob)
    vocab = payload.section(_SECTION_VOCAB, _decode_vocab)
    idf = None
    if meta["feature_kind"] == FEATURE_TFIDF:
        idf = payload.section(_SECTION_IDF, lambda r: _decode_idf(r, vocab.size, meta["n_train_docs"]))
    model = payload.section(_SECTION_MODEL, lambda r: _decode_model(r, meta["model_kind"], vocab.size))
    if payload.remaining():
        raise BundleIntegrityError(f"{payload.remaining()} bytes after the model section")
    return ModelBundle(
        pipeline=pipeline,
        vocab=vocab,
        idf=idf,
        model=model,
        feature_kind=meta["feature_kind"],
        n_train_docs=meta["n_train_docs"],
        created_at=meta["created_at"],
    )


def read_pipeline(blob: bytes) -> PipelineConfig:
    """The cleaning config of the bundle blob, read without numpy: the
    header, checksum, metadata and pipeline checks load_bundle makes first,
    raising the same error for the same first fault there. The vocabulary,
    IDF and model sections are not read."""
    return _read_head(blob)[2]


def read_bundle(path: str | Path) -> ModelBundle:
    return load_bundle(Path(path).read_bytes())


def _read_head(blob: bytes) -> tuple[_Reader, dict, PipelineConfig]:
    """(payload reader after the pipeline section, metadata, pipeline)."""
    reader = _Reader(blob)

    if reader.take(len(MAGIC), "magic") != MAGIC:
        raise BundleIntegrityError("not a model bundle (bad magic)")
    version, payload_len = reader.unpack("<IQ", "header")
    if version != FORMAT_VERSION:
        raise BundleVersionError(
            f"bundle format version {version} is not supported (only {FORMAT_VERSION})"
        )
    payload = _Reader(reader.take(payload_len, "payload"))
    digest = reader.take(CHECKSUM_LEN, "checksum")
    if reader.remaining():
        raise BundleIntegrityError("trailing bytes after checksum")
    if hashlib.sha256(blob[: len(blob) - CHECKSUM_LEN]).digest() != digest:
        raise BundleIntegrityError("checksum mismatch (corrupted bundle)")

    meta = payload.section(_SECTION_META, _decode_meta)
    pipeline = payload.section(_SECTION_PIPELINE, lambda r: _decode_pipeline(r, meta["pipeline_digest"]))
    return payload, meta, pipeline


# --- encoding -----------------------------------------------------------


def _section(tag: int, body: bytes) -> bytes:
    return struct.pack("<IQ", tag, len(body)) + body


def _encode_strs(strings: Iterable[str]) -> bytes:
    """Each string as its u32 UTF-8 byte length and its UTF-8 bytes."""
    parts = []
    for s in strings:
        raw = s.encode("utf-8")
        parts += (_U32.pack(len(raw)), raw)
    return b"".join(parts)


def _encode_f64(arr: np.ndarray) -> bytes:
    import numpy as np

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
    stopwords = sorted(cfg.stopword_list)
    lemmas = sorted(cfg.lemma_exceptions.items())
    return b"".join((
        _encode_strs([cfg.numeric_placeholder]),
        struct.pack("<II", cfg.min_token_len, len(stopwords)),
        _encode_strs(stopwords),
        _U32.pack(len(lemmas)),
        _encode_strs(s for pair in lemmas for s in pair),
    ))


def _encode_vocab(vocab: Vocabulary) -> bytes:
    return struct.pack("<Q", vocab.size) + _encode_strs(vocab.terms())


def _encode_idf(idf: np.ndarray | None, n_docs: int) -> bytes | None:
    if idf is None:
        return None
    return struct.pack("<QQ", n_docs, len(idf)) + _encode_f64(idf)


def _encode_model(model: LinearModel) -> bytes:
    code = _MODEL_CODES[model.kind]
    if model.alpha is not None:  # NB: alpha, V, then the bias (log priors) first
        head = struct.pack("<BdQ", code, model.alpha, model.weights.shape[1])
        return head + _encode_f64(model.bias) + _encode_f64(model.weights)
    head = struct.pack("<BQB", code, model.weights.shape[1], int(model.converged))
    return head + _encode_f64(model.weights) + _encode_f64(model.bias)


# --- decoding -----------------------------------------------------------


class _Reader:
    """A cursor over bytes; every read past the end is an integrity error."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise BundleIntegrityError(f"truncated bundle while reading {what}")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def f64(self, count: int, what: str) -> np.ndarray:
        import numpy as np

        return np.frombuffer(self.take(8 * count, what), dtype="<f8").copy()

    def strings(self, count: int, what: str) -> list[str]:
        """count strings saved by _encode_strs; the loop is the load hot
        path, as the vocabulary holds most of a bundle's strings."""
        blob, pos, end = self.blob, self.pos, len(self.blob)
        out: list[str] = []
        unpack, append = _U32.unpack_from, out.append
        try:
            for _ in range(count):
                if pos + 4 > end:
                    raise BundleIntegrityError(f"truncated bundle while reading {what}")
                (n,) = unpack(blob, pos)
                pos += 4 + n
                if pos > end:
                    raise BundleIntegrityError(f"truncated bundle while reading {what}")
                append(blob[pos - n : pos].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BundleIntegrityError(f"{what} is not valid UTF-8: {exc}") from exc
        self.pos = pos
        return out

    def section(self, tag: int, decode):
        """decode(body) of the next section, which must have id tag and
        be read to its end."""
        found, length = self.unpack("<IQ", "section header")
        if found != tag:
            raise BundleIntegrityError(
                f"section {found} where {tag} belongs: unknown, repeated, missing or out of order"
            )
        body = _Reader(self.take(length, f"section {tag}"))
        value = decode(body)
        if body.remaining():
            raise BundleIntegrityError(f"{body.remaining()} unread bytes in section {tag}")
        return value

    def remaining(self) -> int:
        return len(self.blob) - self.pos


def _decode_meta(r: _Reader) -> dict:
    raw = r.take(r.remaining(), "metadata")
    # json raises ValueError on bad UTF-8, bad JSON and integers longer
    # than the int-to-str digit limit, and RecursionError on deep nesting,
    # in loads and in the canonical re-encoding alike.
    try:
        meta = json.loads(raw.decode("utf-8"))
        canonical = _meta_json(meta) == raw
    except (ValueError, RecursionError) as exc:
        raise BundleIntegrityError(f"unreadable metadata: {exc}") from exc
    keys = ["created_at", "feature_kind", "model_kind", "n_train_docs", "pipeline_digest"]
    if not isinstance(meta, dict) or sorted(meta) != keys:
        raise BundleValidationError("metadata", f"must be an object with exactly the keys {keys}")
    if not canonical:
        raise BundleIntegrityError("metadata is not compact JSON with sorted keys")
    if not isinstance(meta["model_kind"], str) or meta["model_kind"] not in _MODEL_CODES:
        raise BundleValidationError("model_kind", f"unknown kind {meta['model_kind']!r}")
    if meta["feature_kind"] not in (FEATURE_COUNT, FEATURE_TFIDF):
        raise BundleValidationError("feature_kind", f"unknown kind {meta['feature_kind']!r}")
    if not _is_int(meta["n_train_docs"]) or meta["n_train_docs"] < 0:
        raise BundleValidationError("n_train_docs", "must be a non-negative integer")
    if meta["created_at"] is not None and not _is_int(meta["created_at"]):
        raise BundleValidationError("created_at", "must be an integer or null")
    return meta


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_pipeline(r: _Reader, digest: str) -> PipelineConfig:
    (placeholder,) = r.strings(1, "placeholder")
    min_len, n_stop = r.unpack("<II", "min_token_len and stopword count")
    stopwords = r.strings(n_stop, "stopword")
    (n_lemma,) = r.unpack("<I", "lemma count")
    pairs = r.strings(2 * n_lemma, "lemma pair")
    surfaces = pairs[::2]
    _require_increasing("stopwords", stopwords)
    _require_increasing("lemma_exceptions", surfaces)
    try:
        cfg = PipelineConfig(
            stopword_list=frozenset(stopwords),
            lemma_exceptions=dict(zip(surfaces, pairs[1::2])),
            numeric_placeholder=placeholder,
            min_token_len=min_len,
        )
    except ValueError as exc:
        raise BundleValidationError("pipeline", str(exc)) from exc
    if cfg.digest() != digest:
        raise BundleValidationError("pipeline_digest", "embedded tables do not match the recorded digest")
    return cfg


def _decode_vocab(r: _Reader) -> Vocabulary:
    from .features import Vocabulary

    (count,) = r.unpack("<Q", "vocabulary size")
    terms = r.strings(count, "vocabulary term")
    _require_increasing("vocab", terms)
    return Vocabulary(term_to_index={t: i for i, t in enumerate(terms)})


def _require_increasing(field: str, strings: list[str]) -> None:
    """Strings saved sorted must load strictly increasing, so that no
    reordering or repeat re-saves to other bytes."""
    for a, b in zip(strings, strings[1:]):
        if not a < b:
            raise BundleValidationError(field, f"out of order: {a!r} !< {b!r}")


def _decode_idf(r: _Reader, vocab_size: int, n_train_docs: int) -> np.ndarray:
    import numpy as np

    n_docs, size = r.unpack("<QQ", "idf header")
    if n_docs != n_train_docs:
        raise BundleValidationError("idf", f"document count {n_docs} != n_train_docs {n_train_docs}")
    if size != vocab_size:
        raise BundleValidationError("idf", f"length {size} != vocabulary size {vocab_size}")
    idf = r.f64(size, "idf values")
    if not np.all((idf >= 1.0) & (idf < math.inf)):
        raise BundleValidationError("idf", "values not finite and at least 1.0")
    idf.setflags(write=False)
    return idf


def _decode_model(r: _Reader, expected_kind: str, vocab_size: int) -> LinearModel:
    from .models import N_CLASSES, LinearModel

    (code,) = r.unpack("<B", "model kind")
    kind = _MODEL_NAMES.get(code)
    if kind is None:
        raise BundleValidationError("model", f"unknown model code {code}")
    if kind != expected_kind:
        raise BundleValidationError(
            "model_kind", f"metadata says {expected_kind!r} but payload is {kind!r}"
        )
    if kind == KIND_NB:
        alpha, v = r.unpack("<dQ", "nb header")
        if not 0 < alpha < math.inf:
            raise BundleValidationError("alpha", f"{alpha} is not positive and finite")
        if v != vocab_size:
            raise BundleValidationError("model", f"nb has {v} term columns != vocabulary size {vocab_size}")
        prior = r.f64(N_CLASSES, "nb priors")
        _require_unit_mass("bias", prior)
        log_prob = r.f64(N_CLASSES * v, "nb log probs").reshape(N_CLASSES, v)
        _require_finite("weights", log_prob)
        if v > 0:
            _require_unit_mass("weights", log_prob)
        return LinearModel(weights=log_prob, bias=prior, kind=kind, alpha=alpha)
    v, converged = r.unpack("<QB", "linear header")
    if converged > 1:
        raise BundleValidationError("converged", f"flag byte {converged} is not 0 or 1")
    if v != vocab_size:
        raise BundleValidationError("weights", f"shape (4, {v}) != (4, {vocab_size})")
    weights = r.f64(N_CLASSES * v, "weights").reshape(N_CLASSES, v)
    _require_finite("weights", weights)
    bias = r.f64(N_CLASSES, "bias")
    _require_finite("bias", bias)
    return LinearModel(weights=weights, bias=bias, kind=kind, converged=bool(converged))


def _require_finite(field: str, values: np.ndarray) -> None:
    import numpy as np

    if not np.all(np.isfinite(values)):
        raise BundleValidationError(field, "non-finite values")


def _require_unit_mass(field: str, log_p: np.ndarray) -> None:
    """Each row of exp(log_p) must sum to 1 within 1e-9. Written as `not
    <=` so that a NaN fails; a log-probability that overflows exp gives an
    inf, which fails too."""
    import numpy as np

    with np.errstate(over="ignore"):
        mass = np.sum(np.exp(log_p), axis=-1)
    if not np.all(np.abs(mass - 1.0) <= 1e-9):
        raise BundleValidationError(field, f"row mass {mass} != 1")
