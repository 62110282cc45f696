"""Streaming MediaWiki dump ingestion and per-editor feature extraction.

``stream_revisions`` walks a stub-meta-history XML dump with an expat push
parser in bounded memory.  ``accumulate`` folds the revision stream into
per-editor statistics and ``finalize`` turns those into the nine-feature
vector the inference engines consume.
"""
from __future__ import annotations

import csv
import logging
import math
from collections import deque
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from typing import IO, Iterable, Iterator, NamedTuple
from xml.parsers import expat

log = logging.getLogger(__name__)

WIKI_START_DEFAULT = datetime(2001, 1, 15, tzinfo=timezone.utc)
FEATURE_COLUMNS = (
    "editor_id", "anonymous", "pages", "activity", "not_minor",
    "comments", "presence", "frequency", "regularity", "bytes",
)
_INTEGER_COLUMNS = ("anonymous", "pages", "activity", "bytes")
_RATIO_COLUMNS = ("not_minor", "comments", "presence", "frequency", "regularity")
_DAY = 86400


class DumpParseError(ValueError):
    def __init__(self, message: str, byte_offset: int):
        self.byte_offset = byte_offset
        super().__init__(f"{message} (byte offset {byte_offset})")


class RevisionRecord(NamedTuple):
    page_id: str
    revision_id: str
    timestamp: datetime
    editor_id: str
    anonymous: bool
    comment_present: bool
    minor_flag: bool
    page_bytes: int


def parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


# The slots of a revision being read, then what else an element may set or
# open.  Per context, a table maps element names to these.  Text fields,
# <text> and contexts are read from direct children only, so a non-main
# slot's <content><text> is not the revision's; <page> opens anywhere outside
# a page, and <minor> and a deleted <contributor> count anywhere in a
# revision.
(_ID, _TIMESTAMP, _EDITOR, _COMMENT, _ANONYMOUS, _MINOR, _BYTES, _DELETED,
 _PAGE_ID, _PAGE, _REVISION) = range(11)
_OUTSIDE_FIELDS = {"page": _PAGE}
_PAGE_FIELDS = {"id": _PAGE_ID, "revision": _REVISION}
_REVISION_FIELDS = {"id": _ID, "timestamp": _TIMESTAMP, "comment": _COMMENT,
                    "username": _EDITOR, "ip": _EDITOR, "minor": _MINOR,
                    "text": _BYTES, "contributor": _DELETED}
# a contributor's own <id> is not the revision's, nor is a <text> in it
_CONTRIBUTOR_FIELDS = {k: v for k, v in _REVISION_FIELDS.items() if k not in ("id", "text")}


class _RevisionHandler:
    """Expat callbacks collecting completed revision records.  ``_fields``
    is the context's table and ``_depth`` counts the elements open below
    the context's element.  Character data reaches Python only while a
    text field is captured, when ``_field_end`` takes the end events."""

    def __init__(self, parser):
        self._parser = parser
        self.ready: deque[RevisionRecord] = deque()
        self.skipped = 0
        self.page_id: str | None = None
        self._rev: list = []
        self._fields = _OUTSIDE_FIELDS
        self._depth = self._slot = self._field_depth = 0
        self._parts: list[str] = []
        parser.StartElementHandler = self._start
        parser.EndElementHandler = self._end

    def _start(self, name, attrs):
        self._depth += 1
        slot = self._fields.get(name)
        if slot is None:
            return
        rev = self._rev
        if slot == _MINOR:
            rev[_MINOR] = True
        elif slot == _BYTES:
            if self._depth != 1:
                return
            try:
                rev[_BYTES] = int(attrs["bytes"])
            except (KeyError, ValueError):
                if rev[_BYTES] is None:
                    self._capture(_BYTES)
        elif slot == _DELETED:  # <contributor>
            if attrs.get("deleted"):
                rev[_DELETED] = True
            if self._depth == 1 and self._fields is _REVISION_FIELDS:
                self._fields, self._depth = _CONTRIBUTOR_FIELDS, 0
        elif slot == _PAGE:
            self.page_id = None
            self._fields, self._depth = _PAGE_FIELDS, 0
        elif self._depth == 1:
            if slot == _REVISION:
                self._rev = [None, None, None, None, False, False, None, False]
                self._fields, self._depth = _REVISION_FIELDS, 0
            elif slot != _PAGE_ID or self.page_id is None:
                if slot == _EDITOR:
                    rev[_ANONYMOUS] = name == "ip"
                self._capture(slot)

    def _end(self, name):
        if self._depth:
            self._depth -= 1
        elif self._fields is _CONTRIBUTOR_FIELDS:
            self._fields = _REVISION_FIELDS
        elif self._fields is _REVISION_FIELDS:
            self._finish_revision()
            self._fields = _PAGE_FIELDS
        else:  # </page>, or an element around pages
            self._fields = _OUTSIDE_FIELDS

    def _capture(self, slot):
        """Collect the character data of the element just opened."""
        self._slot, self._field_depth = slot, self._depth - 1
        self._parts.clear()
        self._parser.CharacterDataHandler = self._parts.append
        self._parser.EndElementHandler = self._field_end

    def _field_end(self, name):
        self._depth -= 1
        if self._depth != self._field_depth:
            return
        text = "".join(self._parts).strip()
        if self._slot == _PAGE_ID:
            self.page_id = text
        elif self._slot == _BYTES:
            self._rev[_BYTES] = len(text.encode("utf-8"))
        else:
            self._rev[self._slot] = text
        self._parser.CharacterDataHandler = None
        self._parser.EndElementHandler = self._end

    def _finish_revision(self):
        rev_id, stamp, editor, comment, anonymous, minor, size, deleted = self._rev
        # an empty <username></username> or <ip/> names no contributor
        if stamp is None or not editor or deleted:
            self.skipped += 1
            log.warning("skipping revision %s of page %s: missing timestamp or contributor",
                        rev_id, self.page_id)
            return
        try:
            ts = parse_timestamp(stamp)
        except ValueError:
            self.skipped += 1
            log.warning("skipping revision %s of page %s: bad timestamp %r",
                        rev_id, self.page_id, stamp)
            return
        self.ready.append(RevisionRecord(self.page_id or "", rev_id or "", ts, editor,
                                         anonymous, bool(comment), minor, max(size or 0, 0)))


class RevisionStream(Iterator[RevisionRecord]):
    """Iterator over a dump's revisions; ``skipped`` counts dropped ones."""

    CHUNK = 1 << 16

    def __init__(self, stream: IO[bytes]):
        self._stream = stream
        self._parser = expat.ParserCreate()
        self._parser.buffer_text = True
        self._handler = _RevisionHandler(self._parser)
        self._done = False

    @property
    def skipped(self) -> int:
        return self._handler.skipped

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


def stream_revisions(stream: IO[bytes]) -> RevisionStream:
    """Iterate the dump's revisions in document order, bounded memory."""
    return RevisionStream(stream)


@dataclass
class EditorAccumulator:
    editor_id: str
    anonymous: bool
    pages_touched: set[str] = field(default_factory=set)
    edit_count: int = 0
    not_minor_count: int = 0
    comment_count: int = 0
    first_edit: float = 0.0  # epoch seconds
    last_edit: float = 0.0
    net_bytes: int = 0
    active_windows: frozenset[int] = frozenset()
    # per active day, the earliest and latest edit instant; a day overlaps at
    # most two windows, so these recover the exact window set once first_edit
    # is final, in memory bounded by the calendar span
    _day_spans: dict[int, list[float]] = field(default_factory=dict)

    def add(self, ts: float, minor: bool, comment: bool, page_id: str, delta: int):
        if self.edit_count == 0:
            self.first_edit = self.last_edit = ts
        elif ts < self.first_edit:
            self.first_edit = ts
        elif ts > self.last_edit:
            self.last_edit = ts
        self.edit_count += 1
        if not minor:
            self.not_minor_count += 1
        if comment:
            self.comment_count += 1
        self.pages_touched.add(page_id)
        self.net_bytes += delta
        span = self._day_spans.setdefault(int(ts // _DAY), [ts, ts])
        if ts < span[0]:
            span[0] = ts
        elif ts > span[1]:
            span[1] = ts

    def seal(self, window_seconds: float):
        windows = set()
        for lo, hi in self._day_spans.values():
            windows.add(int((lo - self.first_edit) // window_seconds))
            windows.add(int((hi - self.first_edit) // window_seconds))
        self.active_windows = frozenset(windows)


@dataclass(frozen=True)
class EditorFeatures:
    editor_id: str
    anonymous: int
    pages: int
    activity: int
    not_minor: float
    comments: float
    presence: float
    frequency: float
    regularity: float
    bytes: int

    def as_dict(self) -> dict[str, float]:
        return {
            "anonymous": float(self.anonymous),
            "pages": float(self.pages),
            "activity": float(self.activity),
            "not_minor": self.not_minor,
            "comments": self.comments,
            "presence": self.presence,
            "frequency": self.frequency,
            "regularity": self.regularity,
            "bytes": float(self.bytes),
        }


# The feature vector's names, the keys of ``EditorFeatures.as_dict``.
FEATURE_NAMES = frozenset(f.name for f in fields(EditorFeatures)) - {"editor_id"}


def accumulate(
    records: Iterable[RevisionRecord],
    dump_instant: datetime,
    window_days: int = 30,
) -> dict[str, EditorAccumulator]:
    """Fold a revision stream (document order: revisions grouped by page,
    chronological within a page) into per-editor statistics.

    A revision's byte contribution is the size delta against the previous
    revision of the same page; a page's first revision contributes its full
    size.
    """
    dump_ts = dump_instant.timestamp()
    editors: dict[str, EditorAccumulator] = {}
    current_page: str | None = None
    prev_bytes = 0
    for page_id, revision_id, timestamp, editor_id, anonymous, comment, minor, size in records:
        ts = timestamp.timestamp()
        if ts > dump_ts:
            log.warning("revision %s is after the dump instant", revision_id)
        if page_id != current_page:
            current_page = page_id
            prev_bytes = 0
        acc = editors.get(editor_id)
        if acc is None:
            acc = editors[editor_id] = EditorAccumulator(editor_id, anonymous)
        acc.add(ts, minor, comment, page_id, size - prev_bytes)
        prev_bytes = size
    window_seconds = window_days * _DAY
    for acc in editors.values():
        acc.seal(window_seconds)
    return editors


def finalize(
    acc: EditorAccumulator,
    dump_instant: datetime,
    wiki_start_instant: datetime = WIKI_START_DEFAULT,
    window_days: int = 30,
) -> EditorFeatures:
    """Feature vector of one editor.

    Presence compares the editor's first observed edit (registration proxy)
    to the wiki's lifetime; frequency and regularity are per 30-day window of
    the editor's own first-to-last lifecycle, capped at 1.
    """
    dump_ts = dump_instant.timestamp()
    start_ts = wiki_start_instant.timestamp()
    if dump_ts <= start_ts:
        raise ValueError("dump instant must be after the wiki start instant")
    activity = acc.edit_count
    window_seconds = window_days * _DAY
    lifecycle_windows = int((acc.last_edit - acc.first_edit) // window_seconds) + 1
    presence = (dump_ts - acc.first_edit) / (dump_ts - start_ts)
    return EditorFeatures(
        editor_id=acc.editor_id,
        anonymous=1 if acc.anonymous else 0,
        pages=len(acc.pages_touched),
        activity=activity,
        not_minor=acc.not_minor_count / activity,
        comments=acc.comment_count / activity,
        presence=min(max(presence, 0.0), 1.0),
        frequency=min(1.0, activity / lifecycle_windows),
        regularity=min(1.0, len(acc.active_windows) / lifecycle_windows),
        bytes=acc.net_bytes,
    )


def extract_features(
    stream: IO[bytes],
    dump_instant: datetime,
    wiki_start_instant: datetime = WIKI_START_DEFAULT,
    window_days: int = 30,
) -> list[EditorFeatures]:
    """Dump stream to feature vectors, sorted by editor id."""
    editors = accumulate(stream_revisions(stream), dump_instant, window_days)
    return [
        finalize(editors[e], dump_instant, wiki_start_instant, window_days)
        for e in sorted(editors)
    ]


def _fmt(x: float) -> str:
    return format(x, ".10g")


def write_features_csv(features: Iterable[EditorFeatures], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FEATURE_COLUMNS)
        for f in features:
            writer.writerow([
                f.editor_id, f.anonymous, f.pages, f.activity,
                _fmt(f.not_minor), _fmt(f.comments), _fmt(f.presence),
                _fmt(f.frequency), _fmt(f.regularity), f.bytes,
            ])


def read_features_csv(path: str) -> list[EditorFeatures]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != FEATURE_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(FEATURE_COLUMNS)}")
        out = []
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                features = _feature_row(row)
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: bad feature row ({e})") from None
            if features.editor_id in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate editor_id "
                                 f"{features.editor_id!r}")
            seen.add(features.editor_id)
            out.append(features)
    return out


def _feature_row(row: list[str]) -> EditorFeatures:
    """One features-file row.  Every value must be finite, counts
    non-negative integers, ``bytes`` an integer, ratios in [0, 1] and
    ``anonymous`` 0 or 1; the first violation raises ``ValueError``."""
    if len(row) != len(FEATURE_COLUMNS):
        raise ValueError(f"{len(row)} columns, expected {len(FEATURE_COLUMNS)}")
    values: dict[str, int | float] = {}
    for name, text in zip(FEATURE_COLUMNS[1:], row[1:]):
        values[name] = x = _parse_number(name, text)
        if not math.isfinite(x):
            raise ValueError(f"{name} {text!r} is not finite")
    for name in _INTEGER_COLUMNS:
        if isinstance(values[name], float) and not values[name].is_integer():
            raise ValueError(f"{name} {values[name]!r} is not an integer")
    for name in ("pages", "activity"):
        if values[name] < 0:
            raise ValueError(f"{name} {values[name]!r} is negative")
    for name in _RATIO_COLUMNS:
        if not 0.0 <= values[name] <= 1.0:
            raise ValueError(f"{name} {values[name]!r} is outside [0, 1]")
    if values["anonymous"] not in (0.0, 1.0):
        raise ValueError(f"anonymous {values['anonymous']!r} is neither 0 nor 1")
    return EditorFeatures(editor_id=row[0], **{
        name: int(x) if name in _INTEGER_COLUMNS else x for name, x in values.items()
    })


def _parse_number(name: str, text: str) -> int | float:
    """The value as a float, except that a finite integer literal in an
    integer column parses with ``int``, exactly where ``float`` would round
    beyond 2**53."""
    x = float(text)
    if name in _INTEGER_COLUMNS and math.isfinite(x):
        try:
            return int(text)
        except ValueError:
            pass
    return x


def read_barnstars(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        return {line.strip() for line in fh if line.strip()}
