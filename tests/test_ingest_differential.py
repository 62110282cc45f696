"""Differential oracle for dump ingest: the streaming reader against the
handler it replaced, and against the DOM reference.

``OracleRevisionStream`` below is the name-stack handler that read dumps
before the context-dispatched one, kept verbatim as the oracle.  Seeded
dumps from this file's own generator cover a contributor's nested ``<id>``,
``<username>`` and ``<ip>``, deleted contributors, missing and unparsable
timestamps, ``<text>`` with, without and with a non-integer ``bytes``,
entity-escaped user names, empty and blank comments, ``<minor/>``, pages
whose first revision is skipped and page ``<id>``s after ``<title>`` and
``<ns>``.  The records, in order, and the skip counts must be equal at the
default chunk size and at chunks small enough to split fields across
``Parse`` calls.  The oracle takes a ``<text>`` at any depth of a revision,
the streaming reader only the revision's own, so the oracle reads each dump
with every non-main slot's and unknown child's ``<text>`` renamed
(``_main_slot_only``).  On the
well-formed subset (no skips, ``bytes`` on every ``<text>``, which is all
the DOM reference reads) the features must equal
``reference_impl.extract_features_dom``.  Those well-formed dumps also hold
other slots' ``<content>`` and unknown children with a nested ``<minor/>``,
``<text>``, ``<id>``, ``<timestamp>`` and ``<comment>``; the oracle takes a
``<minor>`` at any depth too, so ``_main_slot_only`` renames the nested
``<minor>`` as well.
"""
from __future__ import annotations

import io
import logging
import random
import re
from collections import deque
from datetime import datetime, timedelta, timezone
from xml.parsers import expat

import pytest

import reference_impl as ref
from nonmono.ingest import (
    DumpParseError,
    RevisionRecord,
    RevisionStream,
    extract_features,
    parse_timestamp,
    stream_revisions,
)

log = logging.getLogger(__name__)

DUMP_DATE = datetime(2021, 1, 15, tzinfo=timezone.utc)
NS = "http://www.mediawiki.org/xml/export-0.10/"
SEEDS = range(8)
CHUNKS = (None, 7, 64)  # None: the default
# user names as written in the XML: entity and character references included
USERS = ("alice", "Bob &amp; Co", "&lt;carol&gt;", "&#201;mile", "d&quot;q", "Zoë")
IPS = ("10.0.0.1", "2001:db8::7")
COMMENTS = ("", "<comment>fix typo</comment>", "<comment></comment>", "<comment>   </comment>",
            "<comment />", '<comment deleted="deleted" />', "<comment>a &amp; b</comment>")
FAULTS = ("deleted", "no-timestamp", "bad-timestamp")
BAD_TIMESTAMPS = ("2019-13-40T25:00:00Z", "yesterday", "")


class _OracleHandler:
    """Expat callbacks collecting completed revision records."""

    def __init__(self):
        self.stack: list[str] = []
        self.ready: deque[RevisionRecord] = deque()
        self.skipped = 0
        self.page_id: str | None = None
        self.rev: dict | None = None
        self.text_parts: list[str] = []
        self.capture: str | None = None

    def start(self, name, attrs):
        self.stack.append(name)
        parent = self.stack[-2] if len(self.stack) >= 2 else None
        if name == "page":
            self.page_id = None
        elif name == "revision" and parent == "page":
            self.rev = {
                "id": None, "timestamp": None, "editor": None, "anonymous": False,
                "comment": False, "minor": False, "bytes": None, "deleted": False,
            }
        elif self.rev is not None:
            if name == "minor":
                self.rev["minor"] = True
            elif name == "text":
                if "bytes" in attrs:
                    try:
                        self.rev["bytes"] = int(attrs["bytes"])
                    except ValueError:
                        pass
                self.text_parts = []
                self.capture = "text"
            elif name in ("id", "timestamp", "username", "ip", "comment"):
                # a contributor's nested <id> must not clobber the revision id
                if name == "id" and parent != "revision":
                    return
                if parent in ("revision", "contributor"):
                    self.text_parts = []
                    self.capture = name
            if name == "contributor" and attrs.get("deleted"):
                self.rev["deleted"] = True
        elif name == "id" and parent == "page" and self.page_id is None:
            self.text_parts = []
            self.capture = "page_id"

    def data(self, text):
        if self.capture is not None:
            self.text_parts.append(text)

    def end(self, name):
        captured = "".join(self.text_parts).strip() if self.capture else ""
        if self.capture == "page_id" and name == "id":
            self.page_id = captured
        elif self.rev is not None and self.capture is not None:
            if name == "id" and self.capture == "id":
                self.rev["id"] = captured
            elif name == "timestamp":
                self.rev["timestamp"] = captured
            elif name == "username":
                self.rev["editor"], self.rev["anonymous"] = captured, False
            elif name == "ip":
                self.rev["editor"], self.rev["anonymous"] = captured, True
            elif name == "comment":
                self.rev["comment"] = bool(captured)
            elif name == "text" and self.rev["bytes"] is None:
                self.rev["bytes"] = len(captured.encode("utf-8"))
        if self.capture == name or (self.capture == "page_id" and name == "id"):
            self.capture = None
            self.text_parts = []
        if name == "revision" and self.rev is not None:
            self._finish_revision()
        self.stack.pop()

    def _finish_revision(self):
        rev = self.rev
        self.rev = None
        if rev["timestamp"] is None or rev["editor"] is None or rev["deleted"]:
            self.skipped += 1
            log.warning("skipping revision %s of page %s: missing timestamp or contributor",
                        rev["id"], self.page_id)
            return
        try:
            ts = parse_timestamp(rev["timestamp"])
        except ValueError:
            self.skipped += 1
            log.warning("skipping revision %s of page %s: bad timestamp %r",
                        rev["id"], self.page_id, rev["timestamp"])
            return
        self.ready.append(RevisionRecord(
            page_id=self.page_id or "",
            revision_id=rev["id"] or "",
            timestamp=ts,
            editor_id=rev["editor"],
            anonymous=rev["anonymous"],
            comment_present=rev["comment"],
            minor_flag=rev["minor"],
            page_bytes=max(rev["bytes"] or 0, 0),
        ))


class OracleRevisionStream:
    """Iterator over a dump's revisions; ``skipped`` counts dropped ones."""

    CHUNK = 1 << 16

    def __init__(self, stream):
        self._stream = stream
        self._handler = _OracleHandler()
        self._parser = expat.ParserCreate()
        self._parser.buffer_text = True
        self._parser.StartElementHandler = self._handler.start
        self._parser.EndElementHandler = self._handler.end
        self._parser.CharacterDataHandler = self._handler.data
        self._done = False

    @property
    def skipped(self) -> int:
        return self._handler.skipped

    def __iter__(self):
        return self

    def __next__(self) -> RevisionRecord:
        while not self._handler.ready:
            if self._done:
                raise StopIteration
            chunk = self._stream.read(self.CHUNK)
            try:
                if chunk:
                    self._parser.Parse(chunk)
                else:
                    self._parser.Parse(b"", True)
                    self._done = True
            except expat.ExpatError as e:
                raise DumpParseError(
                    f"malformed XML: {expat.errors.messages[e.code]}",
                    self._parser.ErrorByteIndex,
                ) from None
        return self._handler.ready.popleft()


# ---------------------------------------------------------------- generator

def _revision(rng: random.Random, rev_id: int, when: datetime, clean: bool,
              fault: str | None) -> str:
    anonymous = rng.random() < 0.3
    pad = (lambda s: s) if clean else (lambda s: rng.choice(("", " ", "\n  ")).join(("", s, "")))
    if anonymous:
        who = [f"<ip>{pad(rng.choice(IPS))}</ip>"]
    else:
        who = [f"<username>{pad(rng.choice(USERS))}</username>",
               f"<id>{rng.randint(1, 999)}</id>"]
        rng.shuffle(who)
    if not clean and rng.random() < 0.1:
        # markup inside a field: its text counts, the field ends at its own end tag
        who[who[0].startswith("<id>")] = "<username>Al<span>i</span>ce</username>"
    if not clean and rng.random() < 0.15:
        # both names: the later one decides the editor and its anonymity
        who.insert(rng.randint(0, len(who)), f"<ip>{rng.choice(IPS)}</ip>")
    contributor = f"<contributor>{''.join(who)}</contributor>"
    stamp = when.strftime("%Y-%m-%dT%H:%M:%SZ")
    size = rng.randint(0, 4000)
    text = rng.choice((f'<text bytes="{size}" xml:space="preserve" />',
                       f'<text xml:space="preserve" bytes="{size}">héllo</text>'))
    if not clean:
        text = rng.choice((text, "<text />", f"<text>{pad('héllo wörld &amp; more')}</text>",
                           '<text bytes="12.5">abc</text>', '<text bytes="abc" />',
                           '<text bytes="-3" />', '<text id="9" bytes=" 42 " />'))
    if fault == "deleted":
        contributor = rng.choice(('<contributor deleted="deleted" />',
                                  '<contributor deleted="deleted"><id>0</id></contributor>'))
    timestamp = f"<timestamp>{pad(stamp)}</timestamp>"
    if fault == "no-timestamp":
        timestamp = ""
    elif fault == "bad-timestamp":
        timestamp = f"<timestamp>{rng.choice(BAD_TIMESTAMPS)}</timestamp>"
    children = [f"<id>{pad(str(rev_id))}</id>", f"<parentid>{rev_id - 1}</parentid>",
                timestamp, contributor, "<minor />" if rng.random() < 0.3 else "",
                rng.choice(COMMENTS), "<model>wikitext</model>",
                "<format>text/x-wiki</format>", text, "<sha1>0123abc</sha1>"]
    if rng.random() < 0.25:
        # another slot's <content>: its <text> and <minor> are not the revision's
        slot = ["<role>aux</role>", "<model>json</model>", f'<text bytes="{size // 2}" />',
                "<minor />" if rng.random() < 0.5 else ""]
        rng.shuffle(slot)
        children.append(f"<content>{''.join(slot)}</content>")
    if not clean and rng.random() < 0.15:
        # a second <text> of the revision's own
        children.append(rng.choice((
            "<text>abc</text>", '<text bytes="x">de</text>', f'<text bytes="{size + 7}" />')))
    if rng.random() < 0.2:
        # fields nested below an unknown child are not the revision's
        children.append("<extension><id>77</id><timestamp>1999-01-01T00:00:00Z</timestamp>"
                        f'<comment>nested</comment><minor /><text bytes="{size + 3}">ab</text>'
                        "<contributor /></extension>")
    if not clean and rng.random() < 0.3:
        # the schema fixes no order among a revision's children
        rng.shuffle(children)
    sep = rng.choice(("", "\n      "))
    return f"    <revision>{sep}{sep.join(c for c in children if c)}{sep}</revision>"


def random_dump(seed: int, clean: bool) -> bytes:
    """A seeded dump of a few pages.  ``clean`` leaves out every skip and
    every ``<text>`` without an integer ``bytes``, and pads no field with
    whitespace, so that the DOM reference reads it as the program does.
    Clean or not, a revision may hold another slot's ``<content>`` and an
    unknown child, whose ``<minor>``, ``<text>``, ``<id>``, ``<timestamp>``
    and ``<comment>`` are not the revision's."""
    rng = random.Random(seed)
    out = [f'<mediawiki xmlns="{NS}" version="0.10" xml:lang="en">',
           '  <siteinfo><sitename>Diff</sitename><namespaces>'
           '<namespace key="0" case="first-letter" /></namespaces></siteinfo>']
    rev_id = 100
    for page_id in range(1, rng.randint(4, 9) + 1):
        # a page's <id> follows <title> and <ns>; unclean pages may repeat
        # it, give it only after their first revision, or leave it out
        page_ids = [f"<id>{page_id}</id>"]
        where = "head" if clean else rng.choice(("head", "head", "twice", "late", "none"))
        if where == "twice":
            page_ids.append(f"<id>{page_id + 1000}</id>")
        out.append(f"  <page>\n    <title>Page {page_id} &amp; co</title>\n    <ns>0</ns>"
                   + ("".join(page_ids) if where in ("head", "twice") else ""))
        if rng.random() < 0.2:
            out.append('    <redirect title="Elsewhere" />')
        if not clean and rng.random() < 0.2:
            out.append("    <upload><timestamp>2003-01-01T00:00:00Z</timestamp><contributor>"
                       "<username>up</username><id>5</id></contributor><id>999</id></upload>")
        when = datetime(2002, 1, 1, tzinfo=timezone.utc) + timedelta(
            seconds=rng.randint(0, 17 * 365 * 86400))
        # the first page always opens with a revision that must be skipped
        first_skipped = not clean and (page_id == 1 or rng.random() < 0.3)
        for i in range(rng.randint(1, 8)):
            rev_id += 1
            when += timedelta(seconds=rng.choice((30, 3600, 86400 * rng.randint(1, 90))))
            fault = None
            if not clean and (i == 0 and first_skipped or rng.random() < 0.1):
                fault = rng.choice(FAULTS)
            out.append(_revision(rng, rev_id, when, clean, fault))
            if i == 0 and where == "late":
                out.append("".join(page_ids))
        out.append("  </page>")
    out.append("</mediawiki>\n")
    return "\n".join(out).encode("utf-8")


def _main_slot_only(data: bytes) -> bytes:
    """``data`` with the ``<text`` and ``<minor`` tags inside each
    ``<content>`` slot and each unknown ``<extension>`` child renamed
    ``<txet`` and ``<ronim``, which no reader takes: the oracle, which reads
    both at any depth, then reads only the revision's own, as the streaming
    reader does.  Byte offsets are kept."""
    def rename(m):
        return (m.group().replace(b"<text", b"<txet").replace(b"</text", b"</txet")
                .replace(b"<minor", b"<ronim").replace(b"</minor", b"</ronim"))

    return re.sub(rb"<(content|extension)>.*?</\1>", rename, data, flags=re.S)


def _read(stream_type, data: bytes):
    stream = stream_type(io.BytesIO(data))
    return list(stream), stream.skipped


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk{c or 'default'}")
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(RevisionStream, "CHUNK", request.param)
        monkeypatch.setattr(OracleRevisionStream, "CHUNK", request.param)
    return request.param


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("seed", SEEDS)
def test_records_and_skips_match_oracle(seed, chunk, caplog):
    data = random_dump(seed, clean=False)
    with caplog.at_level(logging.WARNING, logger="nonmono.ingest"):
        records, skipped = _read(stream_revisions, data)
    warned = [r for r in caplog.records
              if r.name == "nonmono.ingest" and r.getMessage().startswith("skipping revision")]
    assert (records, skipped) == _read(OracleRevisionStream, _main_slot_only(data))
    assert len(warned) == skipped


def test_generator_covers_the_cases():
    """The oracle comparison above is only as strong as its inputs."""
    dumps = [random_dump(seed, clean=False) for seed in SEEDS]
    reads = [_read(OracleRevisionStream, data) for data in dumps]
    records = [r for read, _skipped in reads for r in read]
    text = b"".join(dumps)
    for needle in (b'deleted="deleted" />', b"<timestamp>yesterday",
                   b'bytes="12.5"', b"<text />", b"&amp; Co", b"&#201;mile",
                   b"<comment>   </comment>", b"<minor />", b"<id>1</id>", b"<content>",
                   b"<extension>", b"<upload>", b"<span>", b"<id>1001</id>"):
        assert needle in text, needle
    assert all(skipped for _records, skipped in reads)
    # some slot's <text> gives the oracle another size than the revision's own
    assert reads != [_read(OracleRevisionStream, _main_slot_only(data)) for data in dumps]
    assert {r.anonymous for r in records} == {True, False}
    assert {r.comment_present for r in records} == {True, False}
    assert {r.minor_flag for r in records} == {True, False}
    assert {"Bob & Co", "<carol>", "Émile", 'd"q'} <= {r.editor_id for r in records}
    # a <text> without an integer bytes counts its UTF-8 content
    assert len("héllo wörld & more".encode()) in {r.page_bytes for r in records}
    # revision 101 opens page 1 of every dump, and is skipped
    assert "101" not in {r.revision_id for r in records}
    # the clean dumps, which the DOM reference reads, hold the nested fields too
    clean = [random_dump(seed, clean=True) for seed in SEEDS]
    nested = [m.group() for data in clean
              for m in re.finditer(rb"<(content|extension)>.*?</\1>", data, flags=re.S)]
    for needle in (b"<content>", b"<extension>", b"<minor />", b"<text ", b"<id>",
                   b"<timestamp>", b"<comment>"):
        assert any(needle in element for element in nested), needle
    assert any(e.startswith(b"<content>") and b"<minor />" in e for e in nested)
    # and the oracle would take a nested <minor> or <text> for the revision's
    flags = lambda data: [(r.minor_flag, r.page_bytes)
                          for r in _read(OracleRevisionStream, data)[0]]
    assert any(flags(data) != flags(_main_slot_only(data)) for data in clean)


@pytest.mark.parametrize("seed", SEEDS)
def test_clean_records_match_oracle(seed, chunk):
    data = random_dump(seed, clean=True)
    records, skipped = _read(stream_revisions, data)
    assert records and skipped == 0
    assert (records, skipped) == _read(OracleRevisionStream, _main_slot_only(data))


@pytest.mark.parametrize("seed", SEEDS)
def test_truncated_dump_fails_at_the_oracle_offset(seed, chunk):
    data = random_dump(seed, clean=False)
    end = random.Random(seed).randrange(len(data) // 4, len(data) - 20)
    outcomes = []
    for stream_type, read in ((stream_revisions, data), (OracleRevisionStream, _main_slot_only(data))):
        stream, got = stream_type(io.BytesIO(read[:end])), []
        with pytest.raises(DumpParseError) as err:
            for record in stream:
                got.append(record)
        outcomes.append((got, stream.skipped, err.value.byte_offset))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_well_formed_features_match_dom_reference(seed, chunk, tmp_path):
    path = tmp_path / "dump.xml"
    path.write_bytes(random_dump(seed, clean=True))
    with open(path, "rb") as fh:
        stream = stream_revisions(fh)
        assert list(stream) and stream.skipped == 0
    with open(path, "rb") as fh:
        features = extract_features(fh, DUMP_DATE)
    program = {f.editor_id: {k: float(format(v, ".10g")) for k, v in f.as_dict().items()}
               for f in features}
    assert program == ref.extract_features_dom(str(path), DUMP_DATE)
