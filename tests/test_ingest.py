import io
import tracemalloc
from datetime import datetime, timezone

import pytest

import reference_impl as ref
from nonmono.ingest import (
    FEATURE_COLUMNS,
    DumpParseError,
    EditorFeatures,
    RevisionRecord,
    accumulate,
    extract_features,
    finalize,
    read_features_csv,
    stream_revisions,
    write_features_csv,
)

DUMP = datetime(2021, 1, 15, tzinfo=timezone.utc)
START = datetime(2001, 1, 15, tzinfo=timezone.utc)


def rec(page, ts, editor="x", anon=False, comment=False, minor=False, size=10):
    return RevisionRecord(page, "r", ts, editor, anon, comment, minor, size)


def ts(y, m, d, h=0):
    return datetime(y, m, d, h, tzinfo=timezone.utc)


def test_small_dump_stream(small_dump_path):
    with open(small_dump_path, "rb") as fh:
        stream = stream_revisions(fh)
        records = list(stream)
    assert len(records) == 7
    assert [r.revision_id for r in records] == ["101", "102", "103", "201", "202", "301", "302"]
    assert records[0].page_id == "1" and records[-1].page_id == "3"
    anon = records[1]
    assert anon.editor_id == "10.0.0.1" and anon.anonymous and anon.minor_flag
    assert records[0].comment_present and not records[3].comment_present
    assert not records[0].minor_flag  # absent <minor/> defaults to false
    assert records[-1].comment_present is False  # empty <comment></comment>
    assert stream.skipped == 0


def test_malformed_xml_reports_offset():
    data = b"<mediawiki><page><revision></page></mediawiki>"
    with pytest.raises(DumpParseError, match="byte offset"):
        list(stream_revisions(io.BytesIO(data)))


def test_missing_timestamp_skipped_with_counter():
    data = b"""<mediawiki><page><id>1</id>
    <revision><id>1</id><contributor><username>a</username></contributor><text bytes="5"/></revision>
    <revision><id>2</id><timestamp>2019-01-01T00:00:00Z</timestamp>
      <contributor><username>a</username></contributor><text bytes="9"/></revision>
    </page></mediawiki>"""
    stream = stream_revisions(io.BytesIO(data))
    records = list(stream)
    assert len(records) == 1 and records[0].revision_id == "2"
    assert stream.skipped == 1


MULTI_SLOT_DUMP = """<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.{version}/">
<page><title>T</title><ns>0</ns><id>1</id>
<revision><id>5</id><timestamp>2019-01-01T00:00:00Z</timestamp>
<contributor><username>a</username><id>3</id></contributor>
<text bytes="100"/><content><role>mediainfo</role><text bytes="7"/></content>
</revision></page></mediawiki>"""


def test_non_main_slot_text_is_not_the_revision_size(tmp_path):
    # export 0.11: the revision's own <text> is the main slot's, and another
    # slot's <content><text> does not override it
    data = MULTI_SLOT_DUMP.format(version=11).encode()
    assert [r.page_bytes for r in stream_revisions(io.BytesIO(data))] == [100]
    features = extract_features(io.BytesIO(data), DUMP)
    program = {f.editor_id: {k: float(format(v, ".10g")) for k, v in f.as_dict().items()}
               for f in features}
    # the DOM reference reads the export-0.10 namespace
    path = tmp_path / "dump.xml"
    path.write_text(MULTI_SLOT_DUMP.format(version=10), encoding="utf-8")
    assert program == ref.extract_features_dom(str(path), DUMP)


def test_accumulate_first_revision_full_size():
    accs = accumulate([rec("p", ts(2019, 1, 1), size=100)], DUMP)
    assert accs["x"].net_bytes == 100


def test_accumulate_windows_40_days_apart():
    accs = accumulate([
        rec("p", ts(2019, 1, 1), size=5),
        rec("p", ts(2019, 2, 10), size=9),
    ], DUMP)
    assert accs["x"].active_windows == frozenset({0, 1})


def test_accumulate_empty():
    assert accumulate([], DUMP) == {}


def test_accumulate_day_straddles_window_boundary():
    # both edits of 2019-01-31 fall on one calendar day, but the 30-day window
    # boundary (relative to the first edit) cuts between them
    accs = accumulate([
        rec("p", datetime(2019, 1, 1, 23, 0, tzinfo=timezone.utc)),
        rec("p", datetime(2019, 1, 31, 22, 0, tzinfo=timezone.utc)),   # day 29.96
        rec("p", datetime(2019, 1, 31, 23, 30, tzinfo=timezone.utc)),  # day 30.02
    ], DUMP)
    assert accs["x"].active_windows == frozenset({0, 1})


def test_accumulate_counts():
    accs = accumulate([
        rec("p", ts(2019, 1, 1), comment=True, size=10),
        rec("p", ts(2019, 1, 2), minor=True, size=14),
        rec("q", ts(2019, 1, 3), size=2),
    ], DUMP)
    acc = accs["x"]
    assert acc.edit_count == 3
    assert acc.pages_touched == {"p", "q"}
    assert acc.not_minor_count == 2
    assert acc.comment_count == 1
    assert acc.net_bytes == 10 + 4 + 2


def test_finalize_ratios():
    accs = accumulate([
        rec("p", ts(2019, 1, 1), size=5),
        rec("p", ts(2019, 1, 20), size=6),
    ], DUMP)
    feats = finalize(accs["x"], DUMP, START)
    assert feats.not_minor == 1.0  # all edits flagged not minor
    assert feats.comments == 0.0
    assert feats.activity == 2 and feats.pages == 1


def test_finalize_single_edit_degenerate_lifecycle():
    accs = accumulate([rec("p", ts(2019, 1, 1))], DUMP)
    feats = finalize(accs["x"], DUMP, START)
    assert feats.frequency == 1.0 and feats.regularity == 1.0


def test_finalize_presence_at_wiki_start():
    accs = accumulate([rec("p", START)], DUMP)
    assert finalize(accs["x"], DUMP, START).presence == 1.0


def test_finalize_rejects_bad_epoch():
    accs = accumulate([rec("p", ts(2019, 1, 1))], DUMP)
    with pytest.raises(ValueError):
        finalize(accs["x"], DUMP, wiki_start_instant=DUMP)


def test_net_bytes_conservation(small_dump_path):
    # without page deletions, editor deltas must add up to final page sizes
    with open(small_dump_path, "rb") as fh:
        accs = accumulate(stream_revisions(fh), DUMP)
    total = sum(a.net_bytes for a in accs.values())
    assert total == 240 + 45 + 90


def test_extraction_deterministic(fixture_dump_path, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        with open(fixture_dump_path, "rb") as fh:
            feats = extract_features(fh, DUMP)
        write_features_csv(feats, str(tmp_path / name))
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_features_csv_round_trip(fixture_features, tmp_path):
    path = tmp_path / "features.csv"
    write_features_csv(fixture_features, str(path))
    back = read_features_csv(str(path))
    assert [f.editor_id for f in back] == [f.editor_id for f in fixture_features]
    for a, b in zip(back, fixture_features):
        assert a.anonymous == b.anonymous and a.pages == b.pages
        assert a.bytes == b.bytes
        assert a.presence == pytest.approx(b.presence, abs=1e-9)


def test_features_csv_integer_columns_exact_beyond_2_53(tmp_path):
    big = 2 ** 53 + 1  # float() would read it back as 2**53
    editor = EditorFeatures(editor_id="big", anonymous=0, pages=big, activity=big,
                            not_minor=0.5, comments=0.5, presence=0.5, frequency=0.5,
                            regularity=0.5, bytes=-big)
    path = tmp_path / "features.csv"
    write_features_csv([editor], str(path))
    assert read_features_csv(str(path)) == [editor]
    path.write_text(",".join(FEATURE_COLUMNS) + "\n" + "x,1.0,3.0,5,0.5,0.5,0.5,0.5,0.5,-2e1\n")
    back = read_features_csv(str(path))[0]
    assert (back.anonymous, back.pages, back.activity, back.bytes) == (1, 3, 5, -20)
    assert all(type(v) is int for v in (back.anonymous, back.pages, back.activity, back.bytes))
    # an integer literal beyond the float range is still rejected as not finite
    path.write_text(",".join(FEATURE_COLUMNS) + "\n" + "x,0,3,5,0.5,0.5,0.5,0.5,0.5,1" + "0" * 400)
    with pytest.raises(ValueError, match="line 2: .*bytes .* is not finite"):
        read_features_csv(str(path))


@pytest.mark.parametrize("row, count", [("x,0,3,5,0.5,0.5,0.5,0.5,0.5,-20,999", 11),
                                        ("x,0,3,5,0.5,0.5,0.5,0.5,0.5", 9)])
def test_features_csv_rejects_wrong_column_count(tmp_path, row, count):
    path = tmp_path / "features.csv"
    path.write_text(",".join(FEATURE_COLUMNS) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=f"line 2: .*{count} columns, expected 10"):
        read_features_csv(str(path))


def test_features_csv_rejects_duplicate_editor_id(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(",".join(FEATURE_COLUMNS) + "\n"
                    "x,0,3,5,0.5,0.5,0.5,0.5,0.5,20\n"
                    "y,0,3,5,0.5,0.5,0.5,0.5,0.5,20\n"
                    "x,1,4,6,0.5,0.5,0.5,0.5,0.5,30\n")
    with pytest.raises(ValueError, match=f"^{path}: line 4: duplicate editor_id 'x'$"):
        read_features_csv(str(path))


def test_features_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1\n")
    with pytest.raises(ValueError, match="header"):
        read_features_csv(str(path))


VALID_ROW = {"editor_id": "x", "anonymous": "0", "pages": "3", "activity": "5",
             "not_minor": "0.5", "comments": "0.5", "presence": "0.5", "frequency": "0",
             "regularity": "1", "bytes": "-20"}


@pytest.mark.parametrize("column, value, reason", [
    ("presence", "nan", "not finite"),
    ("bytes", "inf", "not finite"),
    ("pages", "-1", "negative"),
    ("activity", "-4", "negative"),
    ("pages", "3.9", "not an integer"),
    ("activity", "4.5", "not an integer"),
    ("bytes", "10.5", "not an integer"),
    ("not_minor", "1.5", "outside"),
    ("regularity", "-0.1", "outside"),
    ("anonymous", "2", "neither 0 nor 1"),
])
def test_features_csv_rejects_invalid_value(tmp_path, column, value, reason):
    path = tmp_path / "features.csv"
    bad = dict(VALID_ROW, **{column: value})
    path.write_text("\n".join(",".join(row[c] for c in FEATURE_COLUMNS)
                              for row in (dict(zip(FEATURE_COLUMNS, FEATURE_COLUMNS)),
                                          VALID_ROW, bad)) + "\n")
    with pytest.raises(ValueError) as err:
        read_features_csv(str(path))
    message = str(err.value)
    assert message.startswith(f"{path}: line 3: ")
    assert column in message and reason in message


class SyntheticDump(io.RawIOBase):
    """Unbounded dump synthesized on the fly; never materialized."""

    def __init__(self, revisions: int, editors: int = 20):
        self._chunks = self._generate(revisions, editors)
        self._buffer = b""

    def _generate(self, revisions, editors):
        yield b"<mediawiki><page><id>1</id>"
        for i in range(revisions):
            day = i % 400
            yield (
                f"<revision><id>{i}</id>"
                f"<timestamp>2019-{1 + day // 31 % 12:02d}-{1 + day % 28:02d}T00:00:00Z</timestamp>"
                f"<contributor><username>ed{i % editors}</username></contributor>"
                f'<text bytes="{i % 997}" /></revision>'
            ).encode()
        yield b"</page></mediawiki>"

    def readable(self):
        return True

    def read(self, n=-1):
        while len(self._buffer) < max(n, 1):
            chunk = next(self._chunks, None)
            if chunk is None:
                break
            self._buffer += chunk
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


def _peak_memory(revisions: int) -> int:
    tracemalloc.start()
    accumulate(stream_revisions(SyntheticDump(revisions)), DUMP)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_streaming_memory_bounded():
    small = _peak_memory(2_000)
    large = _peak_memory(20_000)
    # ten times the revisions must not cost anywhere near ten times the memory
    assert large < 2 * small + 512 * 1024
