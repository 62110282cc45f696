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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import IO, Iterable, Iterator
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


@dataclass(frozen=True)
class RevisionRecord:
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


class _RevisionHandler:
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


class RevisionStream(Iterator[RevisionRecord]):
    """Iterator over a dump's revisions; ``skipped`` counts dropped ones."""

    CHUNK = 1 << 16

    def __init__(self, stream: IO[bytes]):
        self._stream = stream
        self._handler = _RevisionHandler()
        self._parser = expat.ParserCreate()
        self._parser.buffer_text = True
        self._parser.StartElementHandler = self._handler.start
        self._parser.EndElementHandler = self._handler.end
        self._parser.CharacterDataHandler = self._handler.data
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
        else:
            self.first_edit = min(self.first_edit, ts)
            self.last_edit = max(self.last_edit, ts)
        self.edit_count += 1
        if not minor:
            self.not_minor_count += 1
        if comment:
            self.comment_count += 1
        self.pages_touched.add(page_id)
        self.net_bytes += delta
        span = self._day_spans.setdefault(int(ts // _DAY), [ts, ts])
        span[0] = min(span[0], ts)
        span[1] = max(span[1], ts)

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
    for rec in records:
        ts = rec.timestamp.timestamp()
        if ts > dump_ts:
            log.warning("revision %s is after the dump instant", rec.revision_id)
        if rec.page_id != current_page:
            current_page = rec.page_id
            prev_bytes = 0
        delta = rec.page_bytes - prev_bytes
        prev_bytes = rec.page_bytes
        acc = editors.get(rec.editor_id)
        if acc is None:
            acc = editors[rec.editor_id] = EditorAccumulator(rec.editor_id, rec.anonymous)
        acc.add(ts, rec.minor_flag, rec.comment_present, rec.page_id, delta)
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
