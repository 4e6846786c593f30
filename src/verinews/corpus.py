"""CSV corpus ingestion: raw records, validated labels, typed documents,
and per-label counts as a plain {label: count} dict.

The expected file layout is a standard comma-delimited, double-quoted,
UTF-8 CSV with a header row naming at least ``public_id``, ``title`` and
``text``. decode_utf8 is the one decoder for every text input: strict
UTF-8, with one leading byte-order mark skipped. Labeled files additionally
carry a rating column, accepted under either the ``our rating`` or
``our_rating`` spelling. Columns are matched by header name, not position,
and a header may name each column that is read only once.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

from .errors import CsvParseError, CsvSchemaError, EncodingError, LabelError, VerinewsError

RATING_HEADERS = ("our rating", "our_rating")
REQUIRED_HEADERS = ("public_id", "title", "text")
_BYTE_ORDER_MARK = "\ufeff"


class Label(IntEnum):
    """4-way veracity code. Codes and display names are fixed."""

    FALSE = 0
    TRUE = 1
    PARTIALLY_FALSE = 2
    OTHER = 3

    @property
    def display_name(self) -> str:
        return self.name.lower()


# Rating strings are matched after trimming, case-folding and collapsing
# internal whitespace runs to a single space. A lookup by Label[raw.upper()]
# would also accept "falſe": str.upper folds "ſ" to "S" and "ı" to "I".
_RATINGS = {label.display_name.replace("_", " "): label for label in Label}


@dataclass(frozen=True)
class RawRecord:
    """One CSV data row. Missing title/text cells become empty strings;
    ``rating`` is None when the file has no rating column."""

    public_id: str
    title: str = ""
    text: str = ""
    rating: str | None = None


@dataclass(frozen=True)
class Document:
    """A news record with parsed label (present iff the corpus is labeled)."""

    id: str
    title: str
    body: str
    label: Label | None = None


def parse_label(raw: str) -> Label:
    """Map a rating string to its Label code.

    Matching is case-insensitive, trims surrounding whitespace and collapses
    internal whitespace runs ("  Partially   False " -> partially_false).
    Underscores count as whitespace so display names parse back to their
    own codes.
    """
    normalized = " ".join(raw.replace("_", " ").split()).lower()
    try:
        return _RATINGS[normalized]
    except KeyError:
        raise LabelError(f"unrecognized rating value: {raw!r}") from None


def parse_csv(data: bytes | str) -> list[RawRecord]:
    """Parse CSV bytes or text into raw records.

    Bytes go through decode_utf8; bytes and text alike skip one leading
    byte-order mark. Standard CSV quoting applies: quoted fields may contain
    commas, doubled quotes and embedded newlines. Missing cells become empty
    strings.

    Raises EncodingError (with the byte offset) on bytes that are not
    UTF-8, CsvSchemaError when a required column is absent or named twice,
    and CsvParseError (with the offending data row number) on malformed input.
    """
    text = decode_utf8(data) if isinstance(data, bytes) else data.removeprefix(_BYTE_ORDER_MARK)
    # The csv module rejects fields over 131072 characters by default; no
    # field is longer than the whole text.
    previous_limit = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    try:
        return _read_records(csv.reader(io.StringIO(text), strict=True))
    finally:
        csv.field_size_limit(previous_limit)


def _read_records(reader) -> list[RawRecord]:
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise CsvParseError(f"malformed CSV header: {exc}") from exc
    if header is None:
        raise CsvSchemaError("empty input: no header row")

    names = [name.strip().lower() for name in header]
    columns = {name: i for i, name in enumerate(names)}
    for required in REQUIRED_HEADERS:
        if required not in columns:
            raise CsvSchemaError(f"missing required column: {required!r}")
    for spellings in (*((h,) for h in REQUIRED_HEADERS), RATING_HEADERS):
        found = [name for name in names if name in spellings]
        if len(found) > 1:
            raise CsvSchemaError(f"header names one column more than once: {', '.join(map(repr, found))}")
    id_col, title_col, text_col = (columns[h] for h in REQUIRED_HEADERS)
    rating_col = next((columns[h] for h in RATING_HEADERS if h in columns), None)

    records = []
    try:
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) < len(header):
                row += [""] * (len(header) - len(row))  # missing cells
            public_id = row[id_col].strip()
            if not public_id:
                raise CsvParseError("empty public_id", row=len(records) + 1)
            records.append(
                RawRecord(
                    public_id=public_id,
                    title=row[title_col],
                    text=row[text_col],
                    rating=row[rating_col] if rating_col is not None else None,
                )
            )
    except csv.Error as exc:
        raise CsvParseError(f"malformed CSV: {exc}", row=len(records) + 1) from exc
    return records


def format_csv(rows: Iterable[list[str]]) -> str:
    """The one output CSV dialect: minimal quoting and "\n" line ends."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def to_documents(records: list[RawRecord], labeled: bool) -> list[Document]:
    """Convert raw records to documents, preserving order.

    With labeled=True every record must carry a parseable rating; a missing
    or unparseable rating raises LabelError naming the record. With
    labeled=False ratings are ignored and no document carries a label.
    """
    docs = []
    labels: dict[str, Label] = {}  # each distinct rating string is parsed once
    for record in records:
        label = labels.get(record.rating) if labeled else None
        if labeled and label is None:
            if record.rating is None or not record.rating.strip():
                raise LabelError(f"record {record.public_id!r} has no rating")
            try:
                label = labels[record.rating] = parse_label(record.rating)
            except LabelError as exc:
                raise LabelError(f"record {record.public_id!r}: {exc}") from None
        docs.append(
            Document(id=record.public_id, title=record.title, body=record.text, label=label)
        )
    return docs


def dataset_stats(docs: list[Document]) -> dict[Label, int]:
    """{label: document count} over all four labels, in code order, zeros
    included; the counts sum to len(docs). Every document must be labeled."""
    counts = dict.fromkeys(Label, 0)
    for doc in docs:
        if doc.label is None:
            raise VerinewsError(f"unlabeled document in stats input: {doc.id!r}")
        counts[doc.label] += 1
    return counts


def decode_utf8(data: bytes) -> str:
    """Strict UTF-8 decoding with one leading byte-order mark skipped;
    invalid input raises EncodingError."""
    try:
        return data.decode("utf-8").removeprefix(_BYTE_ORDER_MARK)
    except UnicodeDecodeError as exc:
        raise EncodingError(data[exc.start], exc.start) from None
