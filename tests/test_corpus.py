import pytest
from hypothesis import example, given, settings, strategies as st

from verinews.corpus import (
    ClassCounts,
    Document,
    Label,
    RawRecord,
    dataset_stats,
    decode_utf8,
    parse_csv,
    parse_label,
    serialize_csv,
    to_documents,
)
from verinews.errors import CsvParseError, CsvSchemaError, EncodingError, LabelError, VerinewsError

HEADER = "public_id,title,text,our_rating\n"


def test_parse_label_examples():
    assert parse_label("FALSE") == Label.FALSE
    assert parse_label("partially false") == Label.PARTIALLY_FALSE
    assert parse_label("  True ") == Label.TRUE
    assert parse_label("Partially   False") == Label.PARTIALLY_FALSE
    assert parse_label("other") == Label.OTHER


def test_parse_label_rejects_unknown():
    with pytest.raises(LabelError, match="mostly true"):
        parse_label("mostly true")


def test_parse_label_inverts_display_names():
    for label in Label:
        name = label.display_name
        for spelling in (name, name.upper(), name.replace("_", " "), f" {name.title()}\t"):
            assert parse_label(spelling) is label


def test_label_codes_and_names_fixed():
    assert [int(l) for l in Label] == [0, 1, 2, 3]
    assert [l.display_name for l in Label] == ["false", "true", "partially_false", "other"]


# The accepted ratings, written out as a literal table: parse_label must
# accept exactly these after trimming, case-folding and collapsing
# whitespace and underscore runs, and reject everything else.
REFERENCE_RATINGS = {
    "false": Label.FALSE,
    "true": Label.TRUE,
    "partially false": Label.PARTIALLY_FALSE,
    "other": Label.OTHER,
}


def _reference_label(raw):
    return REFERENCE_RATINGS.get(" ".join(raw.replace("_", " ").split()).lower())


# Letters of the ratings in both cases, characters that case mapping folds
# onto them ("ſ" uppercases to "S", "ı" to "I", the Kelvin sign lowercases
# to "k"), underscores and whitespace.
_RATING_CHARS = "falsetruepartiyohFALSETRUEPARTIYOH" + "ſıİ\u212a" + "_ \t\n\u00a0\u2003"
_LOOKALIKES = {"s": "ſ", "i": "ıİ"}


@st.composite
def _rating_like(draw):
    """A rating with random case, separators, lookalikes and a few swapped
    characters."""
    name = draw(st.sampled_from([*REFERENCE_RATINGS, "partially_false"]))
    chars = []
    for ch in name:
        if ch in " _":
            ch = draw(st.text(alphabet=" _\t\u00a0", min_size=0, max_size=3))
        else:
            ch = draw(st.sampled_from([ch, ch.upper(), *_LOOKALIKES.get(ch, "")]))
        if draw(st.integers(0, 19)) == 0:
            ch = draw(st.sampled_from(_RATING_CHARS))
        chars.append(ch)
    pad = st.text(alphabet=" \t\n_", max_size=2)
    return draw(pad) + "".join(chars) + draw(pad)


@settings(max_examples=300)
@given(raw=st.one_of(_rating_like(), st.text(alphabet=_RATING_CHARS, max_size=20)))
@example(raw="falſe")
@example(raw="partıally false")
@example(raw="Partİally_false")
def test_parse_label_accepts_exactly_the_reference_table(raw):
    expected = _reference_label(raw)
    if expected is None:
        with pytest.raises(LabelError):
            parse_label(raw)
    else:
        assert parse_label(raw) is expected


def test_parse_csv_header_only():
    assert parse_csv(HEADER) == []


def test_parse_csv_quoted_comma():
    records = parse_csv(HEADER.encode() + b'x1,"a, b",c,false\n')
    assert records == [RawRecord(public_id="x1", title="a, b", text="c", rating="false")]


def test_parse_csv_doubled_quotes_and_newlines():
    raw = HEADER + 'x1,"he said ""hi""","line one\nline two",true\n'
    (record,) = parse_csv(raw)
    assert record.title == 'he said "hi"'
    assert record.text == "line one\nline two"


def test_parse_csv_missing_cells_become_empty():
    (record,) = parse_csv(HEADER + "x1\n")
    assert record == RawRecord(public_id="x1", title="", text="", rating="")


def test_parse_csv_short_row_under_a_repeated_header_name():
    # The last "title" column wins, and it lies past the row's end.
    (record,) = parse_csv("public_id,title,text,title\nx1,a,b\n")
    assert record == RawRecord(public_id="x1", title="", text="b")


def test_parse_csv_1264_rows():
    rows = "".join(f"id{i},t{i},body {i},false\n" for i in range(1264))
    assert len(parse_csv(HEADER + rows)) == 1264


def test_parse_csv_column_order_does_not_matter():
    raw = "text,our_rating,public_id,title\nbody,true,x9,headline\n"
    (record,) = parse_csv(raw)
    assert record == RawRecord(public_id="x9", title="headline", text="body", rating="true")


def test_parse_csv_accepts_both_rating_spellings():
    for header in ("our rating", "our_rating"):
        (record,) = parse_csv(f"public_id,title,text,{header}\nx,t,b,other\n")
        assert record.rating == "other"


def test_parse_csv_without_rating_column():
    (record,) = parse_csv("public_id,title,text\nx,t,b\n")
    assert record.rating is None


def test_parse_csv_missing_required_header():
    with pytest.raises(CsvSchemaError, match="public_id"):
        parse_csv("title,text\nt,b\n")
    with pytest.raises(CsvSchemaError, match="'text'"):
        parse_csv("public_id,title\nx,t\n")


def test_parse_csv_unterminated_quote_reports_row():
    raw = HEADER + 'x1,ok,fine,true\nx2,"broken,oops\n'
    with pytest.raises(CsvParseError, match="row 2"):
        parse_csv(raw)


def test_parse_csv_empty_public_id_rejected():
    with pytest.raises(CsvParseError, match="public_id"):
        parse_csv(HEADER + ",t,b,true\n")


def test_parse_csv_accepts_bytes_and_files():
    # A file's bytes and its text parse alike, each with one leading
    # byte-order mark skipped.
    raw = HEADER + "x1,t,b,false\n"
    expected = parse_csv(raw)
    assert parse_csv(raw.encode("utf-8")) == expected
    assert parse_csv("\ufeff" + raw) == expected
    assert parse_csv(b"\xef\xbb\xbf" + raw.encode("utf-8")) == expected


def test_decode_utf8_skips_one_byte_order_mark():
    bom = b"\xef\xbb\xbf"
    assert decode_utf8(bom + b"the") == decode_utf8(b"the") == "the"
    assert decode_utf8(bom + bom + b"the") == "\ufeffthe"
    assert decode_utf8(b"a" + bom) == "a\ufeff"
    assert decode_utf8(bom) == decode_utf8(b"") == ""
    with pytest.raises(EncodingError, match="offset 3"):
        decode_utf8(bom + b"\xff")


# \r and NUL are outside the dialect: the serializer emits \n terminators
# and the csv module cannot escape NUL bytes.
_record_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00"),
    max_size=40,
)
_records = st.lists(
    st.builds(
        RawRecord,
        public_id=st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=12),
        title=_record_text,
        text=_record_text,
        rating=st.sampled_from(["false", "true", "partially false", "other"]),
    ),
    max_size=20,
)


@given(_records)
def test_serialize_parse_round_trip(records):
    assert parse_csv(serialize_csv(records)) == records


def test_to_documents_blank_substitution():
    docs = to_documents([RawRecord(public_id="a", title="t", text="", rating="false")], True)
    assert docs == [Document(id="a", title="t", body="", label=Label.FALSE)]


def test_to_documents_unlabeled_612():
    records = [RawRecord(public_id=f"r{i}") for i in range(612)]
    docs = to_documents(records, labeled=False)
    assert len(docs) == 612
    assert all(d.label is None for d in docs)


def test_to_documents_other_maps_to_3():
    (doc,) = to_documents([RawRecord(public_id="a", rating="other")], labeled=True)
    assert doc.label == Label.OTHER


def test_to_documents_missing_rating_names_record():
    records = [RawRecord(public_id="good", rating="true"), RawRecord(public_id="bad", rating="")]
    with pytest.raises(LabelError, match="bad"):
        to_documents(records, labeled=True)


def test_to_documents_bad_rating_names_record():
    with pytest.raises(LabelError, match="r7"):
        to_documents([RawRecord(public_id="r7", rating="unsure")], labeled=True)


def test_to_documents_preserves_order():
    records = [RawRecord(public_id=f"r{i}", rating="true") for i in range(10)]
    assert [d.id for d in to_documents(records, True)] == [r.public_id for r in records]


def test_dataset_stats_empty():
    stats = dataset_stats([])
    assert stats.total == 0
    assert all(stats.counts[l] == 0 for l in Label)


def test_dataset_stats_toy():
    docs = [Document(id=str(i), title="", body="", label=Label(c)) for i, c in enumerate([0, 0, 1, 2])]
    stats = dataset_stats(docs)
    assert stats.counts == {Label.FALSE: 2, Label.TRUE: 1, Label.PARTIALLY_FALSE: 1, Label.OTHER: 0}
    assert stats.total == 4


def test_dataset_stats_full_sized_corpus():
    docs = [Document(id=str(i), title="", body="", label=Label(i % 4)) for i in range(1264)]
    assert dataset_stats(docs).total == 1264


def test_dataset_stats_rejects_unlabeled():
    with pytest.raises(VerinewsError, match="u1"):
        dataset_stats([Document(id="u1", title="", body="", label=None)])


@given(st.lists(st.sampled_from(list(Label)), min_size=1, max_size=50), st.randoms())
def test_dataset_stats_permutation_invariant(codes, rnd):
    docs = [Document(id=str(i), title="", body="", label=c) for i, c in enumerate(codes)]
    shuffled = list(docs)
    rnd.shuffle(shuffled)
    assert dataset_stats(docs).counts == dataset_stats(shuffled).counts
    assert dataset_stats(docs).total == len(codes)


def test_class_counts_validates_total():
    with pytest.raises(ValueError):
        ClassCounts(counts={l: 1 for l in Label}, total=3)
