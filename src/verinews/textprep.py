"""Deterministic text cleaning and tokenization.

The cleaning pipeline applies, in order: URL removal, email removal, markup
tag removal, non-ASCII removal, lowercasing, numeric-run replacement with a
placeholder token, and punctuation-to-space substitution. Tokens shorter
than the configured minimum or on the stop-word list are dropped, and the
survivors are lemmatized with an exceptions table plus suffix rules.

URLs and emails never span whitespace, so they are removed one whitespace
run at a time, in time linear in the text. Tag removal and the ASCII fold
can span or join runs, so they and lowercasing act on the whole text; every
later step stays inside one run.

A corpus is cleaned into an IdCorpus, int64 array("q")s of token ids over
the distinct kept lemmas and of document offsets. Each document's folded
runs are looked up in a table of distinct runs as the document is folded;
a run is cleaned, and a token lemmatized, only the first time it is seen,
and the table holds the ids of each run's kept lemmas, so no per-token
string is built. features views the ids as numpy arrays without a copy;
preprocess_corpus and preprocess_document read them back as CleanDoc tokens.

Everything here is a pure function of (input, config): same bytes in, same
tokens out, on any machine. Like corpus, it needs only the standard library.
"""

from __future__ import annotations

import hashlib
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import chain, count

from .corpus import Document, Label
from .errors import SettingError

DEFAULT_PLACEHOLDER = "somenuber"
DEFAULT_MIN_TOKEN_LEN = 3

# Link removal looks only at the whitespace runs that hold one of these.
_LINK_NEEDLES = ("://", "www.", "@")
_RUN_START_RE = re.compile(r"(?s:.*)\s")  # ends after the last whitespace
_RUN_END_RE = re.compile(r"\S*")
_SCHEME_START_RE = re.compile(r"(?s:.*)[^A-Za-z0-9+.-]")  # ends after the last non-scheme char
_LETTER_RE = re.compile(r"[A-Za-z]")
# Greedy [^<]* deletes the maximal span without a nested '<'; an unclosed
# '<' never matches, so pathological input survives to the punctuation pass.
_TAG_RE = re.compile(r"<[^<]*>")
_DIGIT_RUN_RE = re.compile(r"\d+(?:[.,]\d+)*")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]")
_TOKEN_SHAPE_RE = re.compile(r"[a-z]+")

_VOWELS = frozenset("aeiou")


@dataclass(frozen=True)
class PipelineConfig:
    """Immutable cleaning configuration; a bad value raises SettingError.

    The numeric placeholder and each lemma-table surface and lemma must be
    lowercase alphabetic, the shape of a cleaned token: a surface of any
    other shape could never match. The placeholder must also survive the
    filters: at least min_token_len long, and not a stop word.
    """

    stopword_list: frozenset[str] = field(default_factory=frozenset)
    lemma_exceptions: dict[str, str] = field(default_factory=dict)
    numeric_placeholder: str = DEFAULT_PLACEHOLDER
    min_token_len: int = DEFAULT_MIN_TOKEN_LEN

    def __post_init__(self):
        if self.min_token_len < 1:
            raise SettingError("min_token_len must be >= 1")
        p = self.numeric_placeholder
        tokens = [("numeric_placeholder", p)]
        for surface, lemma in self.lemma_exceptions.items():
            tokens += [("lemma surface", surface), (f"lemma of {surface!r}", lemma)]
        for name, token in tokens:
            if not _TOKEN_SHAPE_RE.fullmatch(token):
                raise SettingError(f"{name} must be lowercase alphabetic: {token!r}")
        if len(p) < self.min_token_len:
            raise SettingError(f"numeric_placeholder shorter than min_token_len: {p!r}")
        if p in self.stopword_list:
            raise SettingError(f"numeric_placeholder is a stop word: {p!r}")

    @cached_property
    def longest_exception(self) -> int:
        """Length of the longest lemma exception surface (0 for none)."""
        return max(map(len, self.lemma_exceptions), default=0)

    @classmethod
    def default(cls) -> "PipelineConfig":
        """Config backed by the bundled stop-word and lemma tables."""
        data = resources.files("verinews.data")
        return cls(
            stopword_list=parse_stopwords((data / "stopwords_english.txt").read_text("utf-8")),
            lemma_exceptions=parse_lemma_exceptions(
                (data / "lemma_exceptions.tsv").read_text("utf-8")
            ),
        )

    def digest(self) -> str:
        """SHA-256 over the canonical form of the full rule set.

        Bundles embed this digest so a trained model is pinned to the exact
        stop-word list and lemma table it was built with.
        """
        h = hashlib.sha256()
        h.update(self.numeric_placeholder.encode())
        h.update(b"\x00")
        h.update(str(self.min_token_len).encode())
        for word in sorted(self.stopword_list):
            h.update(b"\x00" + word.encode())
        for surface in sorted(self.lemma_exceptions):
            h.update(b"\x01" + surface.encode() + b"\t" + self.lemma_exceptions[surface].encode())
        return h.hexdigest()


@dataclass(frozen=True)
class CleanDoc:
    """Preprocessed document: ordered lowercase tokens plus optional label."""

    id: str
    tokens: tuple[str, ...]
    label: Label | None = None


@dataclass(frozen=True)
class IdCorpus:
    """A cleaned corpus as token ids.

    Document i keeps lemmas[k] for each k in ids[doc_ptr[i]:doc_ptr[i + 1]],
    in order. lemmas holds each distinct lemma once, in order of first
    occurrence; no matrix built from the ids depends on that order.
    """

    lemmas: list[str]
    ids: array  # typecode "q" (int64), one per kept token
    doc_ptr: array  # typecode "q" (int64), length n_docs + 1

    def __len__(self) -> int:
        return len(self.doc_ptr) - 1

    def token_tuples(self) -> list[tuple[str, ...]]:
        """Each document's lemmas, in order."""
        words = list(map(self.lemmas.__getitem__, self.ids.tolist()))
        bounds = self.doc_ptr.tolist()
        return [tuple(words[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def parse_stopwords(text: str) -> frozenset[str]:
    """Stop-word list format: one token per line, '#' starts a comment."""
    words = set()
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            words.add(entry)
    return frozenset(words)


def parse_lemma_exceptions(text: str) -> dict[str, str]:
    """Lemma table format: surface<TAB>lemma per line, '#' comments allowed."""
    table = {}
    for line in text.splitlines():
        entry = line.split("#", 1)[0].rstrip()
        if not entry.strip():
            continue
        surface, sep, lemma = entry.partition("\t")
        if not sep or not surface.strip() or not lemma.strip():
            raise SettingError(f"bad lemma exceptions line: {line!r}")
        table[surface.strip()] = lemma.strip()
    return table


def normalize_text(raw: str, cfg: PipelineConfig) -> str:
    """Apply the ordered cleaning rules; total on any input string.

    Order: URLs, emails, markup tags, non-ASCII, lowercase, digit runs to
    the placeholder token, remaining non-alphanumerics to spaces.
    """
    return _substitute(_strip_and_fold(raw), cfg)


def _strip_and_fold(raw: str) -> str:
    # The rules that may act across whitespace runs; the result is ASCII.
    s = _strip_links(raw)
    if "<" in s:
        s = _TAG_RE.sub("", s)
    return s.encode("ascii", "ignore").decode("ascii").lower()


def _substitute(s: str, cfg: PipelineConfig) -> str:
    # Digit runs, then non-alphanumerics; neither looks past whitespace.
    s = _DIGIT_RUN_RE.sub(_placeholder_sub(cfg.numeric_placeholder), s)
    return _NON_ALNUM_RE.sub(" ", s)


def _strip_links(s: str) -> str:
    """Equal to deleting each match of the URL pattern
    [A-Za-z][A-Za-z0-9+.-]*://\\S*|www\\.\\S* and then of the email pattern
    \\S*@\\S*\\.\\S*, in time linear in len(s).

    Neither pattern matches whitespace, so each acts on one whitespace run
    (as str.isspace and sre's \\s define it) and only on a run that holds a
    needle. The next position of each needle is kept until the scan passes
    it, so no stretch of s is searched twice.
    """
    if "://" not in s and "www." not in s and "@" not in s:
        return s
    found = [s.find(needle) for needle in _LINK_NEEDLES]
    parts = []
    done = 0  # s[:done] is final, and s[done] is whitespace unless done == 0
    while True:
        at = min((i for i in found if i >= 0), default=-1)
        if at < 0:
            break
        head = _RUN_START_RE.match(s, done, at)
        start = head.end() if head else done
        end = _RUN_END_RE.match(s, at).end()
        parts += (s[done:start], _strip_run(s[start:end]))
        done = end
        for k, i in enumerate(found):
            if 0 <= i < end:
                found[k] = s.find(_LINK_NEEDLES[k], end)
    parts.append(s[done:])
    return "".join(parts)


def _strip_run(run: str) -> str:
    # A URL match starts at the first "www." or at the first scheme letter:
    # an ASCII letter followed by [A-Za-z0-9+.-]* up to a "://". Either way
    # its greedy \S* takes the rest of the run.
    cut = run.find("www.")
    if cut < 0:
        cut = len(run)
    lo = 0  # no scheme stretch reaches back past a "://", so none before lo
    sep = run.find("://")
    while 0 <= sep and lo < cut:
        tail = _SCHEME_START_RE.match(run, lo, sep)
        letter = _LETTER_RE.search(run, tail.end() if tail else lo, sep)
        if letter:
            cut = min(cut, letter.start())
            break
        lo = sep + 3
        sep = run.find("://", lo)
    # What is left is one email match, from its start to its end, if it
    # holds an "@" with a "." after it.
    at = run.find("@", 0, cut)
    if at >= 0 and run.find(".", at + 1, cut) >= 0:
        return ""
    return run[:cut]


def _placeholder_sub(placeholder: str):
    # Pad with a space only against an alphanumeric neighbor, so an already
    # delimited digit run substitutes 1:1 ("alone 2" -> "alone somenuber")
    # while "78visits" still splits into two tokens.
    def sub(m: re.Match) -> str:
        s = m.string
        left = " " if m.start() > 0 and s[m.start() - 1].isalnum() else ""
        right = " " if m.end() < len(s) and s[m.end()].isalnum() else ""
        return left + placeholder + right

    return sub


def tokenize_and_filter(normalized: str, cfg: PipelineConfig) -> list[str]:
    """Split on whitespace runs, dropping short tokens and stop words."""
    return [t for t in normalized.split() if _passes(t, cfg)]


def lemmatize_token(token: str, cfg: PipelineConfig) -> str:
    """Exceptions-table lookup, then the first applicable suffix rule.

    Suffix rules in order: -ies>-y; -sses>-ss; strip -es, -s (not after
    -ss), -ing, -ed, each only when the remaining stem has >= 3 characters.
    Stripping -ing/-ed collapses a doubled final consonant (running > run).
    """
    exception = cfg.lemma_exceptions.get(token)
    if exception is not None:
        return exception
    if token.endswith("ies"):
        return token[:-3] + "y"
    return token[: len(token) - _suffix_cut(token, len(token))]


def _suffix_cut(token: str, end: int) -> int:
    """How many characters the first suffix rule after -ies>-y strips from
    token[:end], undoubling included; 0 when no rule applies."""
    if token.endswith("sses", 0, end):
        return 2
    if token.endswith("es", 0, end) and end - 2 >= 3:
        return 2
    if token.endswith("s", 0, end) and not token.endswith("ss", 0, end) and end - 1 >= 3:
        return 1
    if token.endswith("ing", 0, end) and end - 3 >= 3:
        cut = 3
    elif token.endswith("ed", 0, end) and end - 2 >= 3:
        cut = 2
    else:
        return 0
    last = token[end - cut - 1]
    return cut + (last == token[end - cut - 2] and last not in _VOWELS)


def _lemmatize_stable(token: str, cfg: PipelineConfig) -> str:
    # Iterate to a fixed point so preprocessing its own output is a no-op
    # ("houses" -> "hous" -> "hou" in one call, not across two passes).
    # Every suffix rule shortens the token; the bound guards exception
    # tables that map between surfaces. A suffix rule needs a final s, d
    # or g.
    if token not in cfg.lemma_exceptions and not token.endswith(("s", "d", "g")):
        return token
    end = len(token)  # the lemma so far is token[:end]
    for _ in range(len(token) + 1):
        if end > cfg.longest_exception and not token.endswith("ies", 0, end):
            # No exception is this long, so only a cut applies: no copy.
            cut = _suffix_cut(token, end)
            if not cut:
                break
            end -= cut
        else:
            token = token[:end]
            lemma = lemmatize_token(token, cfg)
            if lemma == token:
                break
            token, end = lemma, len(lemma)
    return token[:end]


def preprocess_document(doc: Document, cfg: PipelineConfig) -> CleanDoc:
    """Run the full pipeline over title + " " + body.

    Lemmas are re-checked against the length and stop-word filters since
    lemmatization can shorten a token or surface a stop word.
    """
    return preprocess_corpus([doc], cfg)[0]


def preprocess_corpus(docs: list[Document], cfg: PipelineConfig) -> list[CleanDoc]:
    """preprocess_document over a list: preprocess_ids, read back as tokens."""
    tokens = preprocess_ids(docs, cfg).token_tuples()
    return [CleanDoc(id=d.id, tokens=t, label=d.label) for d, t in zip(docs, tokens)]


def preprocess_ids(docs: list[Document], cfg: PipelineConfig) -> IdCorpus:
    """The cleaned corpus as token ids, document i's tokens being those of
    preprocess_document(docs[i], cfg).

    Each document is folded and split into whitespace runs, and each run
    looked up in a table of the distinct runs seen so far. Only a run
    missing from it is cleaned, and only a token not seen before is
    lemmatized; the table keeps each run's lemma ids, not its lemmas.
    """
    runs = _RunTable(cfg)
    ids: list[int] = []
    doc_ptr = [0]
    for doc in docs:
        folded = _strip_and_fold(doc.title + " " + doc.body)
        ids += chain.from_iterable(map(runs.__getitem__, folded.split()))
        doc_ptr.append(len(ids))
    return IdCorpus(
        lemmas=list(runs.lemma_ids),
        ids=array("q", ids),
        doc_ptr=array("q", doc_ptr),
    )


class _RunTable(dict):
    """Folded whitespace run -> the ids of the lemmas it keeps, in order.

    A run is cleaned on its first lookup. A run of ASCII letters is one
    token, and the substitutions split any other run into such runs, which
    are looked up here in turn; so each distinct token is lemmatized once.
    """

    def __init__(self, cfg: PipelineConfig):
        super().__init__()
        self.cfg = cfg
        self.lemma_ids = defaultdict(count().__next__)  # a new lemma takes the next id

    def __missing__(self, run: str) -> tuple[int, ...]:
        cfg = self.cfg
        if not run.isalpha():
            kept = tuple(chain.from_iterable(map(self.__getitem__, _substitute(run, cfg).split())))
        elif _passes(run, cfg) and _passes(lemma := _lemmatize_stable(run, cfg), cfg):
            kept = (self.lemma_ids[lemma],)
        else:
            kept = ()
        self[run] = kept
        return kept


def _passes(word: str, cfg: PipelineConfig) -> bool:
    return len(word) >= cfg.min_token_len and word not in cfg.stopword_list
