"""Seeded synthetic news corpora for the benchmark (numpy + stdlib only).

Every split of one seed shares a single lexicon and class structure, so a
model trained on the train split carries over to the test split:

* background tokens follow a Zipf law over a pseudo-word lexicon;
* each class owns a small set of indicative terms, mixed into its
  documents at a rate set per split, with some bleed from other classes
  so the task stays imperfect;
* English function words are sprinkled in so the stop-word filter works;
* noise fires every cleaning rule: URLs, emails, markup tags, non-ASCII
  text, digit runs, and -s/-es/-ies/-ed/-ing inflections.

Pseudo-words are three or four consonant-vowel syllables, so none is an
English stop word or a lemma-table entry, and a bare lexicon word is never
changed by the suffix rules. The same seed always gives the same bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

LABELS = ("false", "true", "partially false", "other")
# Class priors close to the paper's training split.
PRIORS = (0.42, 0.19, 0.32, 0.07)

_CONSONANTS = "bcdfghjklmnprtvz"
_VOWELS = "aeiou"
_FUNCTION_WORDS = (
    "the of and to in a is that for it was on with as by at from this be are"
).split()
_FUNCTION_ARRAY = np.array(_FUNCTION_WORDS, dtype=object)
_TAGS = ("<p>", "</p>", "<b>", "</b>", "<br/>", '<a href="x">', "</a>", "<div class=c>")
_NON_ASCII = ("café", "naïve", "“quoted”", "—", "résumé", "über")
_SUFFIXES = ("s", "es", "ed", "ing", "ies")

BACKGROUND_TERMS = 20_000
INDICATIVE_TERMS = 150  # per class
BLEED_RATE = 0.02  # share of tokens drawn from a random class's terms
FUNCTION_RATE = 0.25
NOISE_RATE = 0.02


@dataclass(frozen=True)
class Split:
    """One generated split; ``labels`` is the truth the benchmark keeps."""

    ids: list[str]
    labels: list[int]  # codes: 0 false, 1 true, 2 partially false, 3 other
    titles: list[str]
    bodies: list[str]

    def csv(self, labeled: bool, rows: int | None = None) -> bytes:
        """The split (or its first ``rows`` documents) as CLI input bytes."""
        n = len(self.ids) if rows is None else rows
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if labeled:
            writer.writerow(["public_id", "title", "text", "our rating"])
            writer.writerows(
                zip(self.ids[:n], self.titles[:n], self.bodies[:n], (LABELS[c] for c in self.labels[:n]))
            )
        else:
            writer.writerow(["public_id", "title", "text"])
            writer.writerows(zip(self.ids[:n], self.titles[:n], self.bodies[:n]))
        return out.getvalue().encode("utf-8")


class CorpusGenerator:
    """Draws splits from the lexicon and classes fixed by ``seed``."""

    def __init__(self, seed: int):
        lexicon_seed, self._split_root = np.random.SeedSequence(seed).spawn(2)
        rng = np.random.Generator(np.random.PCG64(lexicon_seed))
        words = _pseudo_words(rng, BACKGROUND_TERMS + 4 * INDICATIVE_TERMS)
        self._background = np.array(words[:BACKGROUND_TERMS], dtype=object)
        self._indicative = np.array(words[BACKGROUND_TERMS:], dtype=object).reshape(
            4, INDICATIVE_TERMS
        )
        self._bg_cdf = _zipf_cdf(BACKGROUND_TERMS, 1.07)
        self._ind_cdf = _zipf_cdf(INDICATIVE_TERMS, 0.8)

    def split(self, prefix: str, n_docs: int, mean_tokens: int, signal: float) -> Split:
        """Next split: ``n_docs`` documents of about ``mean_tokens`` body
        tokens, a share ``signal`` of them from the document's class terms.

        Splits are drawn in call order, each from its own child stream, so a
        fixed sequence of calls reproduces the same bytes.
        """
        rng = np.random.Generator(np.random.PCG64(self._split_root.spawn(1)[0]))
        labels = _exact_labels(rng, n_docs)
        lo, hi = max(3, int(mean_tokens * 0.75)), int(mean_tokens * 1.25) + 1
        title_len = rng.integers(4, 11, size=n_docs)
        body_len = rng.integers(lo, hi, size=n_docs)
        # Titles and bodies alternate in one token stream: doc i's title is
        # field 2i, its body field 2i+1.
        field_len = np.stack([title_len, body_len], axis=1).ravel()
        field_label = np.repeat(np.array(labels), 2)
        words = self._tokens(rng, np.repeat(field_label, field_len), signal)
        ends = np.cumsum(field_len)
        fields = [" ".join(words[e - n : e]) for n, e in zip(field_len, ends)]
        ids = [f"{prefix}-{i:06d}" for i in range(n_docs)]
        return Split(ids=ids, labels=labels, titles=fields[0::2], bodies=fields[1::2])

    def _tokens(self, rng, token_label: np.ndarray, signal: float) -> list[str]:
        """One word per entry of ``token_label`` (the owning doc's class)."""
        n = token_label.size
        kind = rng.random(n)
        bg = np.searchsorted(self._bg_cdf, rng.random(n), side="right")
        ind = np.searchsorted(self._ind_cdf, rng.random(n), side="right")
        bleed_class = rng.integers(0, 4, size=n)
        fn = rng.integers(0, len(_FUNCTION_WORDS), size=n)

        words = self._background[bg]
        cut = np.cumsum([signal, BLEED_RATE, FUNCTION_RATE, NOISE_RATE])
        own = kind < cut[0]
        words[own] = self._indicative[token_label[own], ind[own]]
        bleed = (kind >= cut[0]) & (kind < cut[1])
        words[bleed] = self._indicative[bleed_class[bleed], ind[bleed]]
        function = (kind >= cut[1]) & (kind < cut[2])
        words[function] = _FUNCTION_ARRAY[fn[function]]
        noisy = np.flatnonzero((kind >= cut[2]) & (kind < cut[3]))
        noise_kind = rng.integers(0, 6, size=noisy.size)
        for pos, k in zip(noisy, noise_kind):
            words[pos] = _noise(rng, int(k), words[pos])
        return words.tolist()


def _noise(rng, kind: int, word: str) -> str:
    if kind == 0:
        return f"https://www.{word}.com/{word}/{int(rng.integers(1, 10_000))}"
    if kind == 1:
        return f"{word}.{word[:3]}@{word}.org"
    if kind == 2:
        return _TAGS[int(rng.integers(0, len(_TAGS)))] + word
    if kind == 3:
        return _NON_ASCII[int(rng.integers(0, len(_NON_ASCII)))]
    if kind == 4:
        return ("2019", "3,400", "12.5", "1,000,000", f"{int(rng.integers(0, 100_000))}")[
            int(rng.integers(0, 5))
        ]
    suffix = _SUFFIXES[int(rng.integers(0, len(_SUFFIXES)))]
    if suffix == "ies":
        return word[:-1] + "ies"  # lemmatizes to word[:-1] + "y"
    return word + suffix


def _pseudo_words(rng, n: int) -> list[str]:
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        syllables = rng.integers(3, 5, size=n)
        cons = rng.integers(0, len(_CONSONANTS), size=(n, 4))
        vows = rng.integers(0, len(_VOWELS), size=(n, 4))
        for k in range(n):
            w = "".join(_CONSONANTS[cons[k, j]] + _VOWELS[vows[k, j]] for j in range(syllables[k]))
            if w not in seen:
                seen.add(w)
                words.append(w)
                if len(words) == n:
                    break
    return words


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    cdf = np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.float64) ** s)
    cdf /= cdf[-1]
    cdf[-1] = np.inf  # searchsorted never runs past the last term
    return cdf


def _exact_labels(rng, n: int) -> list[int]:
    """Largest-remainder class counts at PRIORS, in a seeded order."""
    raw = np.array(PRIORS) * n
    counts = np.floor(raw).astype(int)
    for c in np.argsort(-(raw - counts), kind="stable")[: n - counts.sum()]:
        counts[c] += 1
    labels = np.repeat(np.arange(4), counts)
    return [int(c) for c in rng.permutation(labels)]

