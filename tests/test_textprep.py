import concurrent.futures
import pickle
import re
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_features import assert_same_array, assert_same_csr
from test_models import _count_pools
from verinews import models
from verinews.corpus import Document, Label, decode_utf8, parse_csv, to_documents
from verinews.features import featurize, fit_features
from verinews.persistence import FEATURE_COUNT, FEATURE_TFIDF
from verinews.pipeline import evaluate_bundle, predict_bundle, preprocess_many, train_bundle
from verinews.textprep import (
    CleanDoc,
    IdCorpus,
    PipelineConfig,
    _lemmatize_stable,
    _strip_links,
    lemmatize_token,
    normalize_text,
    parse_lemma_exceptions,
    parse_stopwords,
    preprocess_corpus,
    preprocess_document,
    preprocess_ids,
    tokenize_and_filter,
)

GOLDEN_CLAIMS = Path(__file__).with_name("golden_claims.csv")


@pytest.fixture(scope="module")
def cfg():
    return PipelineConfig.default()


class TestNormalize:
    def test_empty(self, cfg):
        assert normalize_text("", cfg) == ""

    def test_trailing_number_becomes_placeholder(self, cfg):
        assert normalize_text("Home Alone 2", cfg) == "home alone somenuber"

    def test_url_and_email_removed(self, cfg):
        assert normalize_text("Visit https://x.io or mail a@b.com!", cfg) == "visit  or mail "

    def test_www_prefix_removed(self, cfg):
        assert normalize_text("see www.example.org/page now", cfg) == "see  now"

    def test_tags_removed_non_nested(self, cfg):
        assert normalize_text("<b>Bold</b> move", cfg) == "bold move"

    def test_unclosed_tag_survives(self, cfg):
        # pathological '<' must not delete to end of input
        assert normalize_text("a < b and c", cfg) == "a   b and c"

    def test_non_ascii_deleted(self, cfg):
        assert normalize_text("café résumé", cfg) == "caf rsum"

    def test_digit_runs_with_separators(self, cfg):
        assert normalize_text("$1,500 fine", cfg) == " somenuber fine"
        assert normalize_text("pi is 3.14", cfg) == "pi is somenuber"

    def test_digit_run_adjacent_to_letters_splits(self, cfg):
        assert normalize_text("78visits", cfg) == "somenuber visits"

    def test_punctuation_to_spaces(self, cfg):
        assert normalize_text("it's a test-case.", cfg) == "it s a test case "


class TestTokenize:
    def test_short_and_stop_words_dropped(self, cfg):
        assert tokenize_and_filter("a of dog", cfg) == ["dog"]

    def test_placeholder_token_survives(self, cfg):
        assert tokenize_and_filter("home alone somenuber", cfg) == ["home", "alone", "somenuber"]

    def test_empty(self, cfg):
        assert tokenize_and_filter("", cfg) == []

    def test_order_preserved(self, cfg):
        assert tokenize_and_filter("zebra apple zebra", cfg) == ["zebra", "apple", "zebra"]


class TestLemmatize:
    @pytest.mark.parametrize(
        "token,lemma",
        [
            ("shooting", "shoot"),
            ("causes", "cause"),
            ("caught", "catch"),
            ("made", "make"),
            ("studies", "study"),
            ("classes", "class"),
            ("boxes", "box"),
            ("daughters", "daughter"),
            ("running", "run"),
            ("burning", "burn"),
            ("stopped", "stop"),
            ("politicians", "politician"),
            ("glass", "glass"),
            ("flag", "flag"),
            ("somenuber", "somenuber"),
        ],
    )
    def test_examples(self, cfg, token, lemma):
        assert lemmatize_token(token, cfg) == lemma

    def test_short_stems_left_alone(self, cfg):
        # stripping would leave a stem under 3 characters
        assert lemmatize_token("bus", cfg) == "bus"
        assert lemmatize_token("sing", cfg) == "sing"
        assert lemmatize_token("bed", cfg) == "bed"

    def test_ss_endings_not_stripped(self, cfg):
        assert lemmatize_token("address", cfg) == "address"


class TestPreprocess:
    def test_empty_document(self, cfg):
        doc = Document(id="e", title="", body="")
        assert preprocess_document(doc, cfg).tokens == ()

    def test_headline_with_irregulars(self, cfg):
        doc = Document(id="h", title="Obama's Daughters Caught Burning US Flag", body="")
        assert preprocess_document(doc, cfg).tokens == (
            "obama",
            "daughter",
            "catch",
            "burn",
            "flag",
        )

    def test_numeric_title(self, cfg):
        doc = Document(id="n", title="Home Alone 2", body="")
        assert preprocess_document(doc, cfg).tokens == ("home", "alone", "somenuber")

    def test_label_copied_through(self, cfg):
        doc = Document(id="l", title="something", body="", label=Label.OTHER)
        assert preprocess_document(doc, cfg).label == Label.OTHER

    def test_title_and_body_concatenated(self, cfg):
        joined = preprocess_document(Document(id="j", title="alpha", body="beta"), cfg)
        assert joined.tokens == ("alpha", "beta")

    def test_lemma_that_becomes_stopword_is_dropped(self, cfg):
        # "nows" -> "now", which is on the stop list and must not survive
        doc = Document(id="s", title="nows", body="")
        assert preprocess_document(doc, cfg).tokens == ()

    def test_lemma_that_becomes_short_is_dropped(self, cfg):
        # "ties" -> "ty" falls under the length filter after lemmatization
        doc = Document(id="t", title="ties", body="")
        assert preprocess_document(doc, cfg).tokens == ()


_any_text = st.text(max_size=200)


@settings(max_examples=200)
@given(_any_text, _any_text)
def test_output_satisfies_token_invariants(title, body):
    cfg = _CFG
    clean = preprocess_document(Document(id="f", title=title, body=body), cfg)
    for token in clean.tokens:
        assert token.isascii() and token.isalpha() and token == token.lower()
        assert len(token) >= cfg.min_token_len
        assert token not in cfg.stopword_list


@settings(max_examples=200)
@given(_any_text)
def test_preprocess_idempotent(text):
    cfg = _CFG
    first = preprocess_document(Document(id="i", title=text, body=""), cfg)
    again = preprocess_document(Document(id="i", title=" ".join(first.tokens), body=""), cfg)
    assert again.tokens == first.tokens


def test_preprocess_idempotent_on_es_chains():
    # "houses" lemmatizes through an intermediate that itself ends in -s
    cfg = _CFG
    first = preprocess_document(Document(id="i", title="houses raising", body=""), cfg)
    again = preprocess_document(Document(id="i", title=" ".join(first.tokens), body=""), cfg)
    assert again.tokens == first.tokens


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", max_size=120))
def test_normalize_never_grows_plain_text(text):
    assert len(normalize_text(text, _CFG)) <= len(text)


@given(_any_text)
def test_normalize_deterministic(text):
    assert normalize_text(text, _CFG) == normalize_text(text, _CFG)


# The regex chain that the link stripper and the per-run memo must equal.
_URL_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://\S*|www\.\S*")
_EMAIL_RE = re.compile(r"\S*@\S*\.\S*")
_TAG_RE = re.compile(r"<[^<]*>")
_DIGIT_RUN_RE = re.compile(r"\d+(?:[.,]\d+)*")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]")


def reference_normalize(raw, cfg):
    """Each cleaning rule applied to the whole text, one after another."""
    def placeholder(m):
        s = m.string
        left = " " if m.start() > 0 and s[m.start() - 1].isalnum() else ""
        right = " " if m.end() < len(s) and s[m.end()].isalnum() else ""
        return left + cfg.numeric_placeholder + right

    s = _EMAIL_RE.sub("", _URL_RE.sub("", raw))
    s = _TAG_RE.sub("", s)
    s = s.encode("ascii", "ignore").decode("ascii").lower()
    s = _DIGIT_RUN_RE.sub(placeholder, s)
    return _NON_ALNUM_RE.sub(" ", s)


def reference_lemmatize_token(token, cfg):
    """The lemma rules written out one by one, each copying the token."""
    exception = cfg.lemma_exceptions.get(token)
    if exception is not None:
        return exception
    if token.endswith("ies"):
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("es") and len(token) - 2 >= 3:
        return token[:-2]
    if token.endswith("s") and not token.endswith("ss") and len(token) - 1 >= 3:
        return token[:-1]
    for suffix in ("ing", "ed"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            stem = token[: -len(suffix)]
            if stem[-1] == stem[-2] and stem[-1] not in "aeiou":
                return stem[:-1]
            return stem
    return token


def reference_lemmatize_stable(token, cfg):
    """reference_lemmatize_token to a fixed point, or len(token) + 1 steps."""
    for _ in range(len(token) + 1):
        lemma = reference_lemmatize_token(token, cfg)
        if lemma == token:
            return token
        token = lemma
    return token


def reference_tokens(doc, cfg):
    """The reference chain, then every token lemmatized afresh, with no cache."""
    tokens = tokenize_and_filter(reference_normalize(doc.title + " " + doc.body, cfg), cfg)
    lemmas = (reference_lemmatize_stable(t, cfg) for t in tokens)
    return tuple(t for t in lemmas if len(t) >= cfg.min_token_len and t not in cfg.stopword_list)


# Tokens and exception tables built from suffix pieces, so rules fire in
# chains and stripping a long token can land on a table key; table values
# may be keys too, which makes cycles.
_suffix_tokens = st.lists(
    st.sampled_from(["s", "es", "ies", "sses", "ing", "ed", "e", "d", "i", "n", "g", "bb", "y"]),
    max_size=8,
).map("".join)


@settings(max_examples=400)
@given(
    keys=st.lists(_suffix_tokens, max_size=6),
    values=st.lists(_suffix_tokens, max_size=6),
    tokens=st.lists(_suffix_tokens, max_size=10),
    tails=st.lists(_suffix_tokens, max_size=4),
    default=st.booleans(),
)
def test_lemmatizer_matches_the_copying_reference(keys, values, tokens, tails, default):
    table = dict(zip(keys, values + keys[1:] + keys[:1]))
    cfg = _CFG if default else PipelineConfig(lemma_exceptions=table)
    candidates = [*tokens, *keys, *values, *(k + t for k in keys for t in tails)]
    if default:  # chains of cuts that land on a key of the bundled table
        candidates += (s + t for s in _CFG.lemma_exceptions for t in tails)
    for token in candidates:
        assert lemmatize_token(token, cfg) == reference_lemmatize_token(token, cfg)
        assert _lemmatize_stable(token, cfg) == reference_lemmatize_stable(token, cfg)


def test_longest_exception_follows_the_table_in_use():
    assert _CFG.longest_exception == max(map(len, _CFG.lemma_exceptions))
    # Stripping "-eses" from a 23-letter token lands on a 19-letter key,
    # which the suffix rules alone would strip further.
    long_key = PipelineConfig(lemma_exceptions={"abracadabrazzzzzzes": "magic"})
    assert long_key.longest_exception == 19
    assert _lemmatize_stable("abracadabrazzzzzzeseses", long_key) == "magic"
    assert _lemmatize_stable("abracadabrazzzzzzeseses", _CFG) == "abracadabrazzzzzz"
    assert PipelineConfig().longest_exception == 0
    # A cycle in the table ends when the step budget runs out, so the
    # result depends on how many steps the suffix rules used first.
    cycle = PipelineConfig(lemma_exceptions={"bbb": "ddd", "ddd": "bbb"})
    for token in ("bbbes", "bbbeses", "bbbs"):
        assert _lemmatize_stable(token, cycle) == reference_lemmatize_stable(token, cycle)


_LONG_TOKEN_SNIPPET = """
from verinews.corpus import Document
from verinews.textprep import PipelineConfig, _lemmatize_stable, preprocess_document

cfg = PipelineConfig.default()
for token in ["es" * 500_000, "ed" * 500_000, "ing" * 333_334, "sses" * 250_000, "s" * 10**6]:
    _lemmatize_stable(token, cfg)
    preprocess_document(Document(id="p", title=token, body=""), cfg)
assert _lemmatize_stable("ab" + "es" * 500_000, cfg) == "abe"
"""


def test_one_megabyte_token_lemmatizes_in_linear_time(child_env):
    # Each suffix rule once copied the rest of the token, so "es" * n took
    # time quadratic in n: 0.17 s at n = 20 000, and minutes for a 1 MB
    # token. Now all five inputs take seconds.
    result = subprocess.run(
        [sys.executable, "-c", _LONG_TOKEN_SNIPPET],
        capture_output=True, text=True, cwd=str(Path(__file__).parent), env=child_env, timeout=30,
    )
    assert result.returncode == 0, result.stderr


# Stems and suffixes that fire every lemma rule, lemmas the filters drop
# ("ties" -> "ty" is short, "thes" -> "the" is a stop word), and a table
# entry whose lemma is a stop word.
_lemma_cfg = PipelineConfig(
    stopword_list=frozenset({"the", "was", "ran"}),
    lemma_exceptions={"went": "go", "running": "ran", "geese": "goose"},
)
_words = st.builds(
    str.__add__,
    st.sampled_from(["the", "was", "went", "running", "geese", "hous", "pass", "run", "ski", "th", "t"]),
    st.sampled_from(["", "s", "es", "ies", "sses", "ing", "ed"]),
)
_lemma_docs = st.lists(
    st.lists(_words, max_size=15).map(lambda ws: Document(id="m", title=" ".join(ws), body="")),
    max_size=10,
)


@settings(max_examples=150)
@given(_lemma_docs)
def test_cached_cleaning_matches_per_token_lemmatizer(docs):
    expected = [reference_tokens(d, _lemma_cfg) for d in docs]
    assert [c.tokens for c in preprocess_corpus(docs, _lemma_cfg)] == expected
    assert [preprocess_document(d, _lemma_cfg).tokens for d in docs] == expected


# Pieces that fire each cleaning rule and sit on each edge between them:
# Unicode whitespace that the ASCII fold deletes (so two runs can join),
# \x1c-\x1f that it keeps, a zero-width space that is not whitespace, URL
# schemes and "www." in both cases, emails, tags, digit runs with
# separators, non-ASCII letters and digits, and words for every lemma rule.
_WHITESPACE = [" ", "\n", "\u00a0", "\u2028", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f", "\x85"]
_RUN_PIECES = [
    "\u200b", "<", ">", "@", "://", ":", "/", "www.", "WWW.", "w", "+", ".", "-", ",",
    "1", "2.5", "3,000", "7.", "a", "Z", "x1", "é", "ß", "\u0663", "\u00b2",
    "the", "went", "running", "houses", "ties", "passes", "Skiing", "stopped", "geese",
]
_runs = st.lists(st.sampled_from(_RUN_PIECES), max_size=12).map("".join)
_texts = st.lists(st.sampled_from(_RUN_PIECES + _WHITESPACE), max_size=40).map("".join)
_text_docs = st.lists(
    st.builds(lambda t, b: Document(id="x", title=t, body=b), _texts, _texts), max_size=6
)


@settings(max_examples=500)
@given(st.one_of(_runs, _texts))
def test_link_stripper_matches_the_regexes(text):
    assert _strip_links(text) == _EMAIL_RE.sub("", _URL_RE.sub("", text))


@settings(max_examples=300)
@given(_texts)
def test_normalize_matches_the_regex_chain(text):
    for cfg in (_CFG, _lemma_cfg):
        assert normalize_text(text, cfg) == reference_normalize(text, cfg)


@settings(max_examples=200)
@given(_text_docs)
def test_cleaning_matches_the_regex_chain(docs):
    for cfg in (_CFG, _lemma_cfg):
        expected = [reference_tokens(d, cfg) for d in docs]
        assert [c.tokens for c in preprocess_corpus(docs, cfg)] == expected
        assert [preprocess_document(d, cfg).tokens for d in docs] == expected


# Documents for the id corpus: every rule's pieces, NUL, whole tags, an
# unclosed "<" whose ">" may come in a later document, and documents that
# are empty or hold only stop words and short tokens. _cycle_cfg's table
# maps "houses" and "passes" to each other.
_ID_PIECES = _RUN_PIECES + _WHITESPACE + ["\x00", "<b>", "</p>", "<a href=x>", "the was"]
_id_texts = st.lists(st.sampled_from(_ID_PIECES), max_size=40).map("".join)
_id_docs = st.lists(
    st.one_of(
        st.builds(lambda t, b: Document(id="x", title=t, body=b), _id_texts, _id_texts),
        st.lists(st.sampled_from(["the", "was", "of", "a"]), max_size=5).map(
            lambda ws: Document(id="s", title=" ".join(ws), body="")
        ),
    ),
    max_size=8,
)
_cycle_cfg = PipelineConfig(
    stopword_list=frozenset({"the", "was", "ran"}),
    lemma_exceptions={"went": "go", "running": "ran", "houses": "passes", "passes": "houses"},
)
_df_bound = st.one_of(st.none(), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(
    docs=_id_docs, scored=_id_docs, min_df=st.integers(1, 3), max_df=_df_bound, max_terms=_df_bound
)
def test_id_corpus_equals_the_clean_doc_path(docs, scored, min_df, max_df, max_terms):
    for cfg in (_CFG, _cycle_cfg):
        ids = preprocess_ids(docs, cfg)
        clean = [preprocess_document(d, cfg) for d in docs]
        assert ids.token_tuples() == [c.tokens for c in clean]
        assert [c.tokens for c in clean] == [reference_tokens(d, cfg) for d in docs]
        assert ids.ids.typecode == ids.doc_ptr.typecode == "q"
        assert len(ids) == len(docs) and len(set(ids.lemmas)) == len(ids.lemmas)
        assert sorted(set(ids.ids.tolist())) == list(range(len(ids.lemmas)))
        # No matrix may depend on the order of the lemma ids, so the same
        # corpus with its lemmas numbered backwards gives the same results.
        n = len(ids.lemmas)
        backwards = IdCorpus(lemmas=ids.lemmas[::-1], ids=array("q", [n - 1 - i for i in ids.ids]),
                             doc_ptr=ids.doc_ptr)
        scored_ids = preprocess_ids(scored, cfg)
        scored_clean = preprocess_corpus(scored, cfg)
        for tfidf in (False, True):
            want_vocab, want_idf, want_X = fit_features(clean, tfidf, min_df, max_df, max_terms)
            for corpus in (ids, backwards):
                vocab, idf, X = fit_features(corpus, tfidf, min_df, max_df, max_terms)
                assert list(vocab.term_to_index.items()) == list(want_vocab.term_to_index.items())
                if tfidf:
                    assert idf.n_docs == want_idf.n_docs
                    assert_same_array(idf.idf, want_idf.idf)
                assert_same_csr(X, want_X)
            want_scored = featurize(scored_clean, want_vocab, want_idf)
            assert_same_csr(featurize(scored_ids, want_vocab, want_idf), want_scored)


def test_id_corpora_compare_by_value(cfg):
    docs = to_documents(parse_csv(GOLDEN_CLAIMS.read_bytes()), labeled=True)
    assert preprocess_ids(docs, cfg) == preprocess_ids(docs, cfg)
    assert preprocess_ids(docs[:5], cfg) != preprocess_ids(docs, cfg)


def test_lemmatizer_returns_the_empty_token():
    # No suffix rule applies to "", and it has no last letter to test.
    assert _lemmatize_stable("", _CFG) == ""
    mapped = PipelineConfig(lemma_exceptions={"": "abc"})
    assert _lemmatize_stable("", mapped) == reference_lemmatize_stable("", mapped) == "abc"


_PATHOLOGICAL_SNIPPET = """
from verinews.corpus import Document
from verinews.textprep import PipelineConfig, normalize_text, preprocess_document

cfg = PipelineConfig.default()
for text in ["a" * 10**6, "a@" * 500_000, "a@ " * 300_000, "1://" * 250_000, "www." * 250_000]:
    normalize_text(text, cfg)
    preprocess_document(Document(id="p", title=text, body=""), cfg)
"""


def test_pathological_inputs_clean_in_linear_time(child_env):
    # The URL and email regexes backtracked over whole words: "a@" * 1000
    # alone took 4 s, eight times the time of "a@" * 500. A child with a
    # deadline turns a regression into a failure instead of a hung suite;
    # all five inputs together take seconds, not minutes.
    result = subprocess.run(
        [sys.executable, "-c", _PATHOLOGICAL_SNIPPET],
        capture_output=True, text=True, cwd=str(Path(__file__).parent), env=child_env, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _pool_docs():
    words = ["houses", "running", "went", "geese", "passes", "skiing", "the", "ties"]
    return [
        Document(
            id=f"p{i}",
            title=" ".join(words[i % 8 :] + words[: i % 8]),
            body=f"{i} days",
            label=Label(i % 4),
        )
        for i in range(40)
    ]


def test_pooled_chunks_match_the_uncached_reference():
    docs = _pool_docs()
    pooled = preprocess_many(docs, _lemma_cfg, workers=2)
    assert [c.id for c in pooled] == [d.id for d in docs]
    assert [c.tokens for c in pooled] == [reference_tokens(d, _lemma_cfg) for d in docs]


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_pool_is_capped_at_the_core_count(monkeypatch, cores):
    # A forked pool starts all its processes at the first task, so a large
    # worker count must not become that many processes, nor more than the
    # four classes can use. The SGD fit is the only step that uses a pool;
    # cleaning, the other fits and scoring run serially whatever the worker
    # count.
    sizes, problems, tasks = [], [], []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            problems.append(initargs)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            tasks.extend((fn, *args) for args in zip(*iterables))
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(models, "default_workers", lambda: cores)
    monkeypatch.setattr(models, "_sgd_problem", ())
    docs = _pool_docs()
    monkeypatch.setattr(models, "PARALLEL_MIN_DOCS", len(docs))
    bundle = train_bundle(docs, "sgd", FEATURE_TFIDF, _lemma_cfg, workers=10_000)
    assert sizes == ([] if cores == 1 else [min(cores, models.N_CLASSES)])
    # Each task carries a class index and its seed, never the matrix: the
    # initializer hands the problem to each process once.
    if cores > 1:
        assert [c for _, c, _ in tasks] == list(range(models.N_CLASSES))
        assert all(isinstance(seed, np.random.SeedSequence) for *_, seed in tasks)
        matrix = problems[0][0].data.tobytes()
        assert not any(matrix in pickle.dumps(task) for task in tasks)

    sizes.clear()
    train_bundle(docs, "nb", FEATURE_COUNT, _lemma_cfg, workers=10_000)
    train_bundle(docs, "lr", FEATURE_TFIDF, _lemma_cfg, workers=10_000)
    predict_bundle(bundle, docs)
    evaluate_bundle(bundle, docs)
    preprocess_many(docs, _lemma_cfg, workers=2)
    assert sizes == []


def test_train_bundle_pools_on_every_core_by_default(monkeypatch):
    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(models, "default_workers", lambda: 2)
    docs = _pool_docs()
    monkeypatch.setattr(models, "PARALLEL_MIN_DOCS", len(docs))
    pooled = train_bundle(docs, "sgd", FEATURE_TFIDF, _lemma_cfg).model
    assert pools == [2]
    serial = train_bundle(docs, "sgd", FEATURE_TFIDF, _lemma_cfg, workers=1).model
    assert pools == [2]
    assert (pooled.weights.tobytes(), pooled.bias.tobytes()) == (serial.weights.tobytes(), serial.bias.tobytes())


_CFG = PipelineConfig.default()


class TestConfig:
    def test_bundled_stopword_list_size(self, cfg):
        assert 170 <= len(cfg.stopword_list) <= 180

    def test_placeholder_must_be_alphabetic(self):
        with pytest.raises(ValueError, match="alphabetic"):
            PipelineConfig(numeric_placeholder="num123")

    def test_placeholder_must_pass_length_filter(self):
        with pytest.raises(ValueError, match="min_token_len"):
            PipelineConfig(numeric_placeholder="nm")

    def test_placeholder_must_not_be_stopword(self):
        with pytest.raises(ValueError, match="stop word"):
            PipelineConfig(stopword_list=frozenset({"blank"}), numeric_placeholder="blank")

    def test_stopword_file_format(self):
        # A file is decoded as every input is, so a byte-order mark never
        # reaches the first entry.
        for bom in (b"", b"\xef\xbb\xbf"):
            text = decode_utf8(bom + b"foo\n# comment\n\nbar # trailing\n")
            assert parse_stopwords(text) == frozenset({"foo", "bar"})

    def test_lemma_file_format(self):
        for bom in (b"", b"\xef\xbb\xbf"):
            text = decode_utf8(bom + b"went\tgo\n# comment\nsaw\tsee\n")
            assert parse_lemma_exceptions(text) == {"went": "go", "saw": "see"}

    def test_lemma_file_rejects_missing_tab(self):
        with pytest.raises(ValueError, match="lemma"):
            parse_lemma_exceptions("went go\n")

    def test_digest_tracks_rule_set(self, cfg):
        assert cfg.digest() == PipelineConfig.default().digest()
        smaller = PipelineConfig(
            stopword_list=frozenset(set(cfg.stopword_list) - {"the"}),
            lemma_exceptions=cfg.lemma_exceptions,
        )
        assert smaller.digest() != cfg.digest()

    def test_parse_stopwords_on_bundled_text(self, cfg):
        # the bundled list round-trips through its own parser
        text = "\n".join(sorted(cfg.stopword_list))
        assert parse_stopwords(text) == cfg.stopword_list


def test_cleandoc_is_plain_data():
    doc = CleanDoc(id="x", tokens=("alpha",), label=None)
    assert doc.tokens == ("alpha",)
