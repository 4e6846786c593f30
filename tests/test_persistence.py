import dataclasses
import hashlib
import json
import struct
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verinews.corpus import Label
from verinews.errors import (
    BundleError,
    BundleIntegrityError,
    BundleValidationError,
    BundleVersionError,
)
from verinews.features import Vocabulary, build_vocabulary, featurize, fit_idf
from verinews.models import (
    KIND_HINGE,
    KIND_NB,
    LinearModel,
    TrainConfig,
    decision_scores,
    lr_fit,
    nb_fit,
    sgd_fit,
)
from verinews.persistence import (
    FORMAT_VERSION,
    MAGIC,
    ModelBundle,
    load_bundle,
    read_bundle,
    save_bundle_bytes,
    write_bundle,
)
from verinews.textprep import CleanDoc, PipelineConfig


def _corpus(n=12, vocab_terms=("alpha", "beta", "gamma", "delta")):
    docs = []
    for i in range(n):
        tokens = tuple(vocab_terms[j] for j in range((i % len(vocab_terms)) + 1))
        docs.append(CleanDoc(id=str(i), tokens=tokens, label=Label(i % 4)))
    return docs


def _pipeline():
    return PipelineConfig(
        stopword_list=frozenset({"the", "and"}),
        lemma_exceptions={"went": "go"},
    )


def _nb_bundle():
    docs = _corpus()
    vocab = build_vocabulary(docs)
    X = featurize(docs, vocab)
    model = nb_fit(X, [d.label for d in docs])
    return ModelBundle(
        pipeline=_pipeline(),
        vocab=vocab,
        idf=None,
        model=model,
        feature_kind="count",
        n_train_docs=len(docs),
    ), X


def _linear_bundle(fit):
    docs = _corpus()
    vocab = build_vocabulary(docs)
    idf = fit_idf(docs, vocab)
    X = featurize(docs, vocab, idf)
    model = fit(X, [d.label for d in docs], TrainConfig())
    return ModelBundle(
        pipeline=_pipeline(),
        vocab=vocab,
        idf=idf,
        model=model,
        feature_kind="tfidf",
        n_train_docs=len(docs),
    ), X


class TestDeterminism:
    def test_same_bundle_same_bytes(self):
        bundle, _ = _nb_bundle()
        assert save_bundle_bytes(bundle) == save_bundle_bytes(bundle)

    def test_save_load_save_identical(self):
        for bundle, _ in (_nb_bundle(), _linear_bundle(lr_fit), _linear_bundle(sgd_fit)):
            first = save_bundle_bytes(bundle)
            second = save_bundle_bytes(load_bundle(first))
            assert first == second


class TestRoundTrip:
    def test_empty_vocabulary_nb_bundle(self):
        X = featurize([CleanDoc(id="a", tokens=()), CleanDoc(id="b", tokens=())], Vocabulary({}))
        model = nb_fit(X, [Label.FALSE, Label.TRUE])
        bundle = ModelBundle(
            pipeline=_pipeline(),
            vocab=Vocabulary(term_to_index={}),
            idf=None,
            model=model,
            feature_kind="count",
            n_train_docs=2,
        )
        again = load_bundle(save_bundle_bytes(bundle))
        assert again.vocab.size == 0
        assert again.model.bias.tolist() == model.bias.tolist()

    def test_nb_scores_bit_identical(self):
        bundle, X = _nb_bundle()
        again = load_bundle(save_bundle_bytes(bundle))
        assert decision_scores(bundle.model, X).tobytes() == decision_scores(again.model, X).tobytes()

    @pytest.mark.parametrize("fit", [lr_fit, sgd_fit])
    def test_linear_scores_bit_identical(self, fit):
        bundle, X = _linear_bundle(fit)
        again = load_bundle(save_bundle_bytes(bundle))
        assert decision_scores(bundle.model, X).tobytes() == decision_scores(again.model, X).tobytes()

    def test_pipeline_tables_embedded(self):
        bundle, _ = _nb_bundle()
        again = load_bundle(save_bundle_bytes(bundle))
        assert again.pipeline == bundle.pipeline
        assert again.pipeline_digest == bundle.pipeline_digest

    def test_metadata_round_trip(self):
        bundle, _ = _nb_bundle()
        stamped = ModelBundle(
            pipeline=bundle.pipeline,
            vocab=bundle.vocab,
            idf=None,
            model=bundle.model,
            feature_kind="count",
            n_train_docs=bundle.n_train_docs,
            created_at=1700000000,
        )
        again = load_bundle(save_bundle_bytes(stamped))
        assert again.created_at == 1700000000
        assert again.n_train_docs == bundle.n_train_docs
        assert again.feature_kind == "count"

    def test_file_round_trip(self, tmp_path):
        bundle, _ = _nb_bundle()
        path = tmp_path / "m.bundle"
        write_bundle(bundle, path)
        assert save_bundle_bytes(read_bundle(path)) == save_bundle_bytes(bundle)


class TestCorruption:
    def test_truncated_raises_integrity(self):
        raw = save_bundle_bytes(_nb_bundle()[0])
        for cut in (4, len(raw) // 2, len(raw) - 1):
            with pytest.raises(BundleIntegrityError):
                load_bundle(raw[:cut])

    def test_every_region_checksummed(self):
        raw = bytearray(save_bundle_bytes(_nb_bundle()[0]))
        for pos in (9, 25, len(raw) // 2, len(raw) - 5):
            corrupted = bytearray(raw)
            corrupted[pos] ^= 0x40
            with pytest.raises((BundleIntegrityError, BundleVersionError)):
                load_bundle(bytes(corrupted))

    def test_bad_magic(self):
        raw = bytearray(save_bundle_bytes(_nb_bundle()[0]))
        raw[:8] = b"NOTMAGIC"
        with pytest.raises(BundleIntegrityError, match="magic"):
            load_bundle(bytes(raw))

    def test_trailing_garbage_rejected(self):
        raw = save_bundle_bytes(_nb_bundle()[0])
        with pytest.raises(BundleIntegrityError, match="trailing"):
            load_bundle(raw + b"x")

    @pytest.mark.parametrize("version", [0, FORMAT_VERSION + 1, 2**32 - 1])
    def test_unsupported_version_rejected_before_checksum(self, version):
        raw = bytearray(save_bundle_bytes(_nb_bundle()[0]))
        raw[8:12] = struct.pack("<I", version)  # the old checksum no longer matches
        with pytest.raises(BundleVersionError, match=f"version {version} is not supported"):
            load_bundle(bytes(raw))
        with pytest.raises(BundleVersionError):
            load_bundle(resealed(bytes(raw)))

    def test_magic_constant_is_eight_bytes(self):
        assert len(MAGIC) == 8


class TestValidation:
    def test_idf_must_accompany_tfidf(self):
        bundle, _ = _nb_bundle()
        with pytest.raises(BundleValidationError, match="idf"):
            ModelBundle(
                pipeline=bundle.pipeline,
                vocab=bundle.vocab,
                idf=None,
                model=bundle.model,
                feature_kind="tfidf",
                n_train_docs=1,
            )

    def test_idf_forbidden_for_count(self):
        bundle, _ = _linear_bundle(lr_fit)
        with pytest.raises(BundleValidationError, match="idf"):
            ModelBundle(
                pipeline=bundle.pipeline,
                vocab=bundle.vocab,
                idf=bundle.idf,
                model=bundle.model,
                feature_kind="count",
                n_train_docs=1,
            )

    def test_idf_below_one_rejected_on_load(self):
        bundle, _ = _linear_bundle(lr_fit)
        bad = ModelBundle(
            pipeline=bundle.pipeline,
            vocab=bundle.vocab,
            idf=np.full(bundle.vocab.size, 0.5),
            model=bundle.model,
            feature_kind="tfidf",
            n_train_docs=1,
        )
        with pytest.raises(BundleValidationError, match="idf"):
            load_bundle(save_bundle_bytes(bad))

    @pytest.mark.parametrize(
        "field, bad", [("bias", np.nan), ("weights", np.nan), ("weights", -np.inf)]
    )
    def test_non_finite_nb_parameters_rejected_on_load(self, field, bad):
        # save_bundle_bytes seals the bundle with a valid checksum, so only
        # validation stands between these parameters and NaN scores.
        bundle, _ = _nb_bundle()
        values = getattr(bundle.model, field).copy()
        values.flat[0] = bad
        if bad == -np.inf:
            # The rest of the row keeps its mass at 1, so only the finite check fails.
            values[0, 1:] -= np.log(np.exp(values[0, 1:]).sum())
        bad = dataclasses.replace(bundle, model=dataclasses.replace(bundle.model, **{field: values}))
        with pytest.raises(BundleValidationError, match=field):
            load_bundle(save_bundle_bytes(bad))

    def test_unknown_feature_kind_rejected(self):
        bundle, _ = _nb_bundle()
        with pytest.raises(BundleValidationError, match="feature_kind"):
            ModelBundle(
                pipeline=bundle.pipeline,
                vocab=bundle.vocab,
                idf=None,
                model=bundle.model,
                feature_kind="hashing",
                n_train_docs=1,
            )


def _with_model(bundle, **changes):
    return dataclasses.replace(bundle, model=dataclasses.replace(bundle.model, **changes))


def _reversed(vocab):
    return Vocabulary({t: vocab.size - 1 - i for t, i in vocab.term_to_index.items()})


# Library-built bundles that load_bundle rejects:
# name -> (nb or lr bundle, edit, the field load_bundle reports).
UNLOADABLE = {
    "nb-width-differs-from-vocabulary": (
        "nb", lambda b: _with_model(b, weights=b.model.weights[:, :-1]), "model"
    ),
    "linear-width-differs-from-vocabulary": ("lr", lambda b: _with_model(b, weights=b.model.weights[:, :-1]), "weights"),
    "zero-nb-alpha": ("nb", lambda b: _with_model(b, alpha=0.0), "alpha"),
    "nan-linear-weights": ("lr", lambda b: _with_model(b, weights=np.full_like(b.model.weights, np.nan)), "weights"),
    "linear-model-of-kind-nb": ("lr", lambda b: _with_model(b, kind="nb"), "model"),
    "vocabulary-not-in-term-order": ("nb", lambda b: dataclasses.replace(b, vocab=_reversed(b.vocab)), "vocab"),
    "idf-shorter-than-vocabulary": ("lr", lambda b: dataclasses.replace(b, idf=b.idf[:-1]), "idf"),
    "infinite-idf": ("lr", lambda b: dataclasses.replace(b, idf=np.full_like(b.idf, np.inf)), "idf"),
}


@pytest.mark.parametrize("name", UNLOADABLE)
def test_save_raises_what_load_would_and_writes_no_file(tmp_path, name):
    model, edit, field = UNLOADABLE[name]
    bad = edit(_nb_bundle()[0] if model == "nb" else _linear_bundle(lr_fit)[0])
    with pytest.raises(BundleValidationError) as caught:
        save_bundle_bytes(bad)
    assert caught.value.field == field
    path = tmp_path / "bad.bundle"
    with pytest.raises(BundleValidationError):
        write_bundle(bad, path)
    assert not path.exists()


def resealed(raw):
    """raw with its checksum recomputed over the bytes before it."""
    return raw[:-32] + hashlib.sha256(raw[:-32]).digest()


def _sections(raw):
    """[tag, body] pairs of a saved bundle's payload."""
    payload = raw[len(MAGIC) + 12 : -32]
    sections, pos = [], 0
    while pos < len(payload):
        tag, length = struct.unpack_from("<IQ", payload, pos)
        sections.append([tag, bytearray(payload[pos + 12 : pos + 12 + length])])
        pos += 12 + length
    return sections


def _sealed(sections, lengths):
    """A bundle over the sections, with the declared section lengths and a
    valid checksum."""
    payload = b"".join(struct.pack("<IQ", tag, n) + body for (tag, body), n in zip(sections, lengths))
    head = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload)) + payload
    return head + hashlib.sha256(head).digest()


_SAVED = [save_bundle_bytes(b) for b, _ in (_nb_bundle(), _linear_bundle(lr_fit), _linear_bundle(sgd_fit))]

# Each edit: (what, section, offset, value). Counts and string lengths are
# u32/u64 fields inside a section body, so overwriting a body word at any
# offset reaches them.
_edits = st.lists(
    st.tuples(
        st.sampled_from(["tag", "length", "u32", "u64", "drop", "repeat"]),
        st.integers(0, 4),
        st.integers(0, 10**6),
        st.one_of(st.integers(0, 40), st.integers(0, 2**64 - 1)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(saved=st.sampled_from(_SAVED), edits=_edits)
def test_corrupt_sections_under_a_valid_checksum_raise_only_bundle_errors(saved, edits):
    sections = _sections(saved)
    lengths = [len(body) for _, body in sections]
    for what, index, offset, value in edits:
        if not sections:
            break
        i = index % len(sections)
        body = sections[i][1]
        if what == "tag":
            sections[i][0] = value % 2**32
        elif what == "length":
            lengths[i] = value
        elif what == "drop":
            del sections[i], lengths[i]
        elif what == "repeat":
            sections.append([sections[i][0], bytearray(body)])
            lengths.append(len(body))
        else:
            fmt = "<I" if what == "u32" else "<Q"
            at = offset % max(1, len(body) - struct.calcsize(fmt) + 1)
            body[at : at + struct.calcsize(fmt)] = struct.pack(fmt, value % 2 ** (8 * struct.calcsize(fmt)))
            lengths[i] = len(body)
    blob = _sealed(sections, lengths)
    try:
        bundle = load_bundle(blob)
    except BundleError:
        return
    # Whatever loads is canonical: it saves back to the bytes it came from.
    assert save_bundle_bytes(bundle) == blob


def _edited(raw, edit):
    """raw re-sealed after edit(sections) changed its [tag, body] list in place."""
    sections = _sections(raw)
    edit(sections)
    return _sealed(sections, [len(body) for _, body in sections])


def _meta(loose=False, **changes):
    """An edit that rewrites the metadata with changed fields, as compact
    sorted JSON or, with ``loose``, indented."""
    def edit(sections):
        meta = dict(json.loads(bytes(sections[0][1])), **changes)
        layout = {"indent": 1} if loose else {"separators": (",", ":")}
        sections[0][1] = bytearray(json.dumps(meta, sort_keys=True, **layout).encode())
    return edit


def _swap_first_two_stopwords(sections):
    body = sections[1][1]
    (n,) = struct.unpack_from("<I", body)
    pos = 4 + n + 8  # after the placeholder, min_token_len and the stopword count
    (a,) = struct.unpack_from("<I", body, pos)
    (b,) = struct.unpack_from("<I", body, pos + 4 + a)
    end = pos + 8 + a + b
    body[pos:end] = body[pos + 4 + a : end] + body[pos : pos + 4 + a]


def _set_model_bytes(at, value):
    def edit(sections):
        sections[-1][1][at : at + len(value)] = value
    return edit


# Bundles that a checksum does not catch: each is sealed with a valid digest,
# and each would save back to other bytes if it loaded. name -> (model, edit)
NON_CANONICAL = {
    "bytes-after-model-body": ("nb", lambda s: s[-1][1].extend(b"\0" * 4)),
    "bytes-after-pipeline-body": ("nb", lambda s: s[1][1].extend(b"\0" * 2)),
    "extra-section-99": ("nb", lambda s: s.append([99, bytearray(b"{}")])),
    "repeated-vocabulary": ("nb", lambda s: s.insert(3, [s[2][0], bytearray(s[2][1])])),
    "sections-out-of-order": ("nb", lambda s: s.insert(1, s.pop(2))),
    "loose-metadata-json": ("nb", _meta(loose=True)),
    "string-created-at": ("nb", _meta(created_at="yesterday")),
    "bool-created-at": ("nb", _meta(created_at=True)),
    "bool-n-train-docs": ("nb", _meta(n_train_docs=True)),
    "extra-metadata-key": ("nb", _meta(note="x")),
    "stopwords-out-of-order": ("nb", _swap_first_two_stopwords),
    "zero-nb-alpha": ("nb", _set_model_bytes(1, struct.pack("<d", 0.0))),
    "nan-nb-alpha": ("nb", _set_model_bytes(1, struct.pack("<d", float("nan")))),
    "converged-flag-2": ("sgd", _set_model_bytes(9, b"\x02")),
}


@pytest.mark.parametrize("name", NON_CANONICAL)
def test_non_canonical_bundle_is_rejected(name):
    model, edit = NON_CANONICAL[name]
    raw = _SAVED[{"nb": 0, "sgd": 2}[model]]
    assert _edited(raw, lambda sections: None) == raw  # only the edit differs
    with pytest.raises((BundleIntegrityError, BundleValidationError)):
        load_bundle(_edited(raw, edit))


def _replace_model_header(fmt, *fields, drop):
    """An edit that rewrites the model header after its code byte as
    struct fmt of fields, and deletes the drop doubles that follow it."""
    def edit(sections):
        body, size = sections[-1][1], 1 + struct.calcsize(fmt)
        body[1 : size + 8 * drop] = struct.pack(fmt, *fields)
    return edit


def _shorten_idf(sections):
    body = sections[3][1]
    n_docs, size = struct.unpack_from("<QQ", body)
    sections[3][1] = bytearray(struct.pack("<QQ", n_docs, size - 1)) + body[16:-8]


def _set_idf_bytes(at, value):
    def edit(sections):
        sections[3][1][at : at + len(value)] = value
    return edit


_IDF_COUNT_7 = _set_idf_bytes(0, struct.pack("<Q", 7))  # the lr bundle has n_train_docs 12


def _idf_section(values):
    return [4, bytearray(struct.pack(f"<QQ{len(values)}d", 3, len(values), *values))]


def _vocab_term_byte(value):
    def edit(sections):
        sections[2][1][12:13] = value  # the first term's first byte
    return edit


def _lemma_went_go_to(surface, lemma):
    """An edit that saves the lemma entry "went" -> "go" as surface ->
    lemma, each of the same length, and records the digest of the edited
    table, so only the entry's shape is at fault."""
    table = dict(dataclasses.asdict(_pipeline()), lemma_exceptions={surface.decode(): lemma.decode()})
    digest = PipelineConfig.digest(SimpleNamespace(**table))

    def edit(sections):
        assert sections[1][1].endswith(b"\x04\x00\x00\x00went\x02\x00\x00\x00go")
        sections[1][1][-10:-6] = surface
        sections[1][1][-2:] = lemma
        _meta(pipeline_digest=digest)(sections)
    return edit


_V = _nb_bundle()[0].vocab.size
_NAN = struct.pack("<d", float("nan"))

# Rejections of a bundle sealed with a valid digest, one fault each:
# name -> (model, edit, error class, field or None for an integrity error).
REJECTED = {
    "pipeline-digest-mismatch": ("nb", _meta(pipeline_digest="0" * 64), BundleValidationError, "pipeline_digest"),
    "unknown-metadata-model-kind": ("nb", _meta(model_kind="svm"), BundleValidationError, "model_kind"),
    "unknown-model-code": ("nb", _set_model_bytes(0, b"\x07"), BundleValidationError, "model"),
    "metadata-kind-differs-from-payload": ("nb", _meta(model_kind="logistic"), BundleValidationError, "model_kind"),
    "idf-length-differs-from-vocabulary": ("lr", _shorten_idf, BundleValidationError, "idf"),
    "idf-count-differs-from-n-train-docs": ("lr", _IDF_COUNT_7, BundleValidationError, "idf"),
    "infinite-idf-value": ("lr", _set_idf_bytes(16, struct.pack("<d", np.inf)), BundleValidationError, "idf"),
    "nan-idf-value": ("lr", _set_idf_bytes(24, _NAN), BundleValidationError, "idf"),
    "nb-width-differs-from-vocabulary": (
        "nb", _replace_model_header("<dQ", 1.0, _V - 1, drop=4), BundleValidationError, "model"
    ),
    "linear-width-differs-from-vocabulary": (
        "sgd", _replace_model_header("<QB", _V - 1, 1, drop=4), BundleValidationError, "weights"
    ),
    "nan-linear-weight": ("sgd", _set_model_bytes(10, _NAN), BundleValidationError, "weights"),
    "non-utf8-vocabulary-term": ("nb", _vocab_term_byte(b"\xff"), BundleIntegrityError, None),
    "unknown-feature-kind": ("lr", _meta(feature_kind="hashing"), BundleValidationError, "feature_kind"),
    "lemma-with-a-comma": ("nb", _lemma_went_go_to(b"went", b"g,"), BundleValidationError, "pipeline"),
    "lemma-surface-in-capitals": ("nb", _lemma_went_go_to(b"Went", b"go"), BundleValidationError, "pipeline"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_sealed_fault_is_rejected_with_its_class_and_field(name):
    model, edit, error, field = REJECTED[name]
    raw = _SAVED[["nb", "lr", "sgd"].index(model)]
    with pytest.raises(error) as caught:
        load_bundle(_edited(raw, edit))
    assert type(caught.value) is error
    assert getattr(caught.value, "field", None) == field


def test_idf_count_is_checked_before_later_faults():
    def edit(sections):
        _shorten_idf(sections)
        _set_model_bytes(10, _NAN)(sections)
        _IDF_COUNT_7(sections)
    with pytest.raises(BundleValidationError, match="document count 7 != n_train_docs 12") as caught:
        load_bundle(_edited(_SAVED[1], edit))
    assert caught.value.field == "idf"


def test_loaded_idf_is_read_only():
    idf = load_bundle(_SAVED[1]).idf
    assert idf.dtype == np.float64 and idf.ndim == 1
    with pytest.raises(ValueError, match="read-only"):
        idf[0] = 2.0


@pytest.mark.parametrize(
    "model, edit",
    [
        ("nb", lambda s: s.insert(3, _idf_section([1.0] * _V))),
        ("lr", lambda s: s.pop(3)),
    ],
    ids=["count-bundle-with-idf-section", "tfidf-bundle-without-idf-section"],
)
def test_idf_section_must_match_the_feature_kind(model, edit):
    raw = _SAVED[["nb", "lr", "sgd"].index(model)]
    with pytest.raises((BundleIntegrityError, BundleValidationError)):
        load_bundle(_edited(raw, edit))


def _metadata(raw):
    """An edit that replaces the metadata section body with raw."""
    def edit(sections):
        sections[0][1] = bytearray(raw)
    return edit


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Metadata that json cannot parse within Python's limits; json raises
# RecursionError or ValueError rather than a decode error on these.
UNPARSABLE_METADATA = [
    pytest.param(b"[" * 200000, id="nested-deeper-than-the-recursion-limit"),
    pytest.param(
        b'{"n_train_docs":' + b"1" * (_INT_DIGITS + 1) + b"}",
        id="integer-over-the-digit-limit",
        marks=pytest.mark.skipif(not _INT_DIGITS, reason="no int-to-str digit limit"),
    ),
]


@pytest.mark.parametrize("raw", UNPARSABLE_METADATA)
def test_unparsable_metadata_is_an_integrity_error(raw):
    with pytest.raises(BundleIntegrityError, match="unreadable metadata"):
        load_bundle(_edited(_SAVED[0], _metadata(raw)))


@pytest.mark.parametrize("saved", _SAVED, ids=["nb", "lr", "sgd"])
def test_every_truncated_section_body_is_an_integrity_error(saved):
    # Every field of every section is read, so a body cut short at any
    # offset runs out of bytes, whatever field the cut lands in.
    sections = _sections(saved)
    for i, (_, body) in enumerate(sections):
        for cut in range(len(body)):
            short = [[tag, b[:cut] if j == i else b] for j, (tag, b) in enumerate(sections)]
            with pytest.raises(BundleIntegrityError):
                load_bundle(_sealed(short, [len(b) for _, b in short]))


# --- the byte layout of docs/bundle-format.md, built field by field -------


def _u32(n):
    return struct.pack("<I", n)


def _u64(n):
    return struct.pack("<Q", n)


def _doubles(*values):
    return struct.pack(f"<{len(values)}d", *values)


def _string(s):
    raw = s.encode("utf-8")
    return _u32(len(raw)) + raw


def _spec_bundle(sections):
    """Magic, version, payload length, the (id, body) sections, digest."""
    payload = b"".join(_u32(tag) + _u64(len(body)) + body for tag, body in sections)
    head = b"VNEWSBDL" + _u32(1) + _u64(len(payload)) + payload
    return head + hashlib.sha256(head).digest()


_LAYOUT_PIPELINE = PipelineConfig(
    stopword_list=frozenset({"the", "and"}),
    lemma_exceptions={"went": "go", "mice": "mouse"},
)
# Stop words and lemma surfaces sorted; "café" is 5 UTF-8 bytes.
_LAYOUT_PIPELINE_BODY = (
    _string("somenuber") + _u32(3)
    + _u32(2) + _string("and") + _string("the")
    + _u32(2) + _string("mice") + _string("mouse") + _string("went") + _string("go")
)
_LAYOUT_VOCAB = Vocabulary(term_to_index={"café": 0, "zebra": 1})
_LAYOUT_VOCAB_BODY = _u64(2) + _string("café") + _string("zebra")


def _layout_meta(created_at, feature_kind, model_kind, n_train_docs):
    """The metadata JSON as the spec shows it: compact, keys sorted."""
    return (
        f'{{"created_at":{created_at},"feature_kind":"{feature_kind}","model_kind":"{model_kind}",'
        f'"n_train_docs":{n_train_docs},"pipeline_digest":"{_LAYOUT_PIPELINE.digest()}"}}'
    ).encode()


def _layout_nb():
    bundle = ModelBundle(
        pipeline=_LAYOUT_PIPELINE,
        vocab=_LAYOUT_VOCAB,
        idf=None,
        model=LinearModel(
            bias=np.log(np.full(4, 0.25)),
            weights=np.log(np.full((4, 2), 0.5)),
            kind=KIND_NB,
            alpha=1.0,
        ),
        feature_kind="count",
        n_train_docs=4,
    )
    # code 0, alpha, V, 4 log priors, 4 x V log probabilities
    model_body = (
        b"\x00" + _doubles(1.0) + _u64(2)
        + _doubles(*[np.log(0.25)] * 4) + _doubles(*[np.log(0.5)] * 8)
    )
    meta = _layout_meta("null", "count", "nb", 4)
    return bundle, _spec_bundle(
        [(1, meta), (2, _LAYOUT_PIPELINE_BODY), (3, _LAYOUT_VOCAB_BODY), (5, model_body)]
    )


def _layout_hinge():
    weights = [[0.5, -0.25], [0.0, 1.0], [-2.0, 0.125], [4.0, -0.5]]
    bias = [0.0, 1.0, -1.0, 0.375]
    bundle = ModelBundle(
        pipeline=_LAYOUT_PIPELINE,
        vocab=_LAYOUT_VOCAB,
        idf=np.array([1.0, 1.5]),
        model=LinearModel(
            weights=np.array(weights), bias=np.array(bias), kind=KIND_HINGE, converged=False
        ),
        feature_kind="tfidf",
        n_train_docs=3,
        created_at=1700000000,
    )
    idf_body = _u64(3) + _u64(2) + _doubles(1.0, 1.5)
    # code 2, V, converged flag 0, 4 x V weights row-major, 4 biases
    model_body = (
        b"\x02" + _u64(2) + b"\x00"
        + _doubles(*(w for row in weights for w in row)) + _doubles(*bias)
    )
    meta = _layout_meta(1700000000, "tfidf", "hinge", 3)
    return bundle, _spec_bundle(
        [(1, meta), (2, _LAYOUT_PIPELINE_BODY), (3, _LAYOUT_VOCAB_BODY), (4, idf_body), (5, model_body)]
    )


def _fields(bundle):
    """Every field of a bundle, with arrays as (shape, bytes)."""
    def plain(value):
        return (value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
    model = {f.name: plain(getattr(bundle.model, f.name)) for f in dataclasses.fields(bundle.model)}
    return (bundle.pipeline, bundle.vocab, plain(bundle.idf), bundle.model.kind, model,
            bundle.feature_kind, bundle.n_train_docs, bundle.created_at)


@pytest.mark.parametrize("build", [_layout_nb, _layout_hinge], ids=["nb-count", "hinge-tfidf"])
def test_saved_bytes_follow_the_spec_field_by_field(build):
    bundle, expected = build()
    assert save_bundle_bytes(bundle) == expected
    assert _fields(load_bundle(expected)) == _fields(bundle)
