"""Crash-safe persistence primitives for the service state stores.

The decision cache and the region store persist as JSONL and sqlite
files, and until this module existed a torn append, a truncated file or
a corrupted sqlite page either raised mid-load (losing the *entire*
store) or -- worse -- went unnoticed.  This module gives every
persistence path the same three guarantees:

**Checksummed record framing.**  :func:`frame_line` wraps one JSON
document as ``#repro:crc32:v1:<crc-hex> <body>``; :func:`unframe_line`
verifies the CRC and raises :class:`FrameError` on any mismatch, so a
record that was torn mid-write is *detected*, never half-parsed.  Bare
lines (no frame prefix) are accepted as legacy records -- every file
written before framing still loads.

**Salvage-on-load.**  :func:`load_jsonl_salvaging` applies valid
records in order and stops at the first torn/corrupt one, keeping the
valid prefix and reporting a structured :class:`RecoveryReport`
(records loaded, records dropped, where, why) instead of raising.
This mirrors how write-ahead logs recover: everything before the tear
is good by construction (appends are ordered), everything after it is
suspect.  A *parseable* record of a foreign format still raises --
pointing a cache at the wrong file is a configuration error, not
storage damage, and salvaging it would hide the bug.

**Atomic replace + fsync policy.**  :func:`atomic_write_text` writes
to a temp file in the target directory and ``os.replace``s it over the
target, so a crash mid-snapshot leaves the previous complete snapshot
intact (the classic write-temp-then-rename).  The fsync policy is
explicit: ``"always"`` (fsync file and directory -- survives power
loss), ``"data"`` (fsync the file only -- survives process crash, the
default), ``"never"`` (fastest; rely on the page cache).

For sqlite backends, :func:`open_sqlite_checked` runs ``PRAGMA
integrity_check`` on open and, on any corruption, quarantines the
damaged database (and its ``-wal``/``-shm`` siblings) under a
``.quarantined-N`` suffix and reconnects to a fresh file -- the caller
then rebuilds from its JSONL snapshot via ``rebuild_from``.  Nothing is
deleted: a quarantined file is evidence, not garbage.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "FSYNC_POLICIES",
    "FrameError",
    "RecoveryReport",
    "atomic_write_text",
    "frame_line",
    "load_jsonl_salvaging",
    "open_sqlite_checked",
    "quarantine_sqlite",
    "unframe_line",
]

logger = logging.getLogger("repro.service.durability")

#: Recognized fsync policies for :func:`atomic_write_text`.
FSYNC_POLICIES: tuple[str, ...] = ("always", "data", "never")

#: Frame prefix: version is part of the prefix so a future v2 frame is
#: unambiguous, and the leading ``#`` guarantees a framed line can never
#: parse as the bare-JSON legacy format by accident.
_FRAME_PREFIX = "#repro:crc32:v1:"
_CRC_WIDTH = 8  # zlib.crc32 as fixed-width lowercase hex


class FrameError(ValueError):
    """A framed line whose checksum or structure does not verify."""


def frame_line(body: str) -> str:
    """Wrap one JSON document line in the CRC32 frame."""
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{_FRAME_PREFIX}{crc:0{_CRC_WIDTH}x} {body}"


def unframe_line(line: str) -> tuple[str, bool]:
    """``(body, framed?)`` for one persisted line.

    Framed lines are CRC-verified (:class:`FrameError` on mismatch or a
    malformed frame); bare lines pass through as legacy records -- their
    only integrity check is JSON parseability at the caller.
    """
    if not line.startswith(_FRAME_PREFIX):
        return line, False
    rest = line[len(_FRAME_PREFIX):]
    if len(rest) < _CRC_WIDTH + 1 or rest[_CRC_WIDTH] != " ":
        raise FrameError(f"malformed frame header: {line[:40]!r}")
    try:
        expected = int(rest[:_CRC_WIDTH], 16)
    except ValueError as exc:
        raise FrameError(f"bad frame checksum field: {line[:40]!r}") from exc
    body = rest[_CRC_WIDTH + 1:]
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise FrameError(
            f"checksum mismatch: expected {expected:08x}, "
            f"got {actual:08x} (torn write?)"
        )
    return body, True


@dataclass(frozen=True)
class RecoveryReport:
    """What one load salvaged, structured for metrics and ``--stats``.

    ``loaded`` records were applied; ``dropped`` records (from
    ``first_bad_line`` on, for JSONL) were discarded as torn or
    corrupt.  ``quarantined`` names the path a corrupt sqlite database
    was moved to, when that is how the damage was handled.
    """

    path: str
    kind: str  # "jsonl" | "sqlite"
    loaded: int
    dropped: int = 0
    first_bad_line: int | None = None
    reason: str | None = None
    quarantined: str | None = None

    @property
    def clean(self) -> bool:
        """True when nothing was dropped or quarantined."""
        return self.dropped == 0 and self.quarantined is None

    @property
    def salvaged(self) -> int:
        """Records recovered *despite damage* (0 for a clean load)."""
        return 0 if self.clean else self.loaded

    def describe(self) -> str:
        if self.clean:
            return f"{self.path}: clean load, {self.loaded} record(s)"
        parts = [
            f"{self.path}: salvaged {self.loaded} record(s), "
            f"dropped {self.dropped}"
        ]
        if self.first_bad_line is not None:
            parts.append(f"first bad line {self.first_bad_line}")
        if self.quarantined is not None:
            parts.append(f"quarantined to {self.quarantined}")
        if self.reason:
            parts.append(self.reason)
        return "; ".join(parts)


def load_jsonl_salvaging(
    path: str | Path,
    *,
    expected_format: str,
    apply: Callable[[dict], None],
    label: str = "record",
) -> RecoveryReport:
    """Load a JSONL store file, salvaging the valid prefix of a tear.

    Each non-blank line is unframed (CRC-checked when framed), JSON
    parsed, format-checked and handed to ``apply``.  The first line
    that fails the CRC or does not parse ends the load: every line
    before it is kept, it and everything after it are dropped, and the
    :class:`RecoveryReport` says so (a warning is logged too).  That is
    exactly the crash-mid-append case -- appends are ordered, so the
    prefix is trustworthy and the suffix is not.

    Two failure classes still raise :class:`ConfigurationError`
    deliberately: a *parseable* record whose ``format`` field is
    foreign (wrong file -- salvaging would quietly merge two stores),
    and a well-formed record ``apply`` cannot use (a writer bug, not
    storage damage).  The latter is reported as ``<path>:<line>: bad
    <label> line`` when ``apply`` raises a ``KeyError``, ``TypeError``,
    ``ValueError``, ``AttributeError`` or other :class:`ReproError`; a
    :class:`ConfigurationError` from ``apply`` propagates as raised.
    """
    source = Path(path)
    lines = source.read_text().splitlines()
    loaded = 0
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        bad_reason: str | None = None
        try:
            body, _framed = unframe_line(line)
            entry = json.loads(body)
        except FrameError as exc:
            bad_reason = str(exc)
        except json.JSONDecodeError as exc:
            bad_reason = f"unparseable JSON: {exc}"
        if bad_reason is None and not isinstance(entry, dict):
            bad_reason = f"expected a JSON object, got {type(entry).__name__}"
        if bad_reason is not None:
            dropped = sum(
                1 for later in lines[number - 1:] if later.strip()
            )
            report = RecoveryReport(
                path=str(source),
                kind="jsonl",
                loaded=loaded,
                dropped=dropped,
                first_bad_line=number,
                reason=bad_reason,
            )
            logger.warning(
                "torn/corrupt %s file %s: salvaged %d record(s), "
                "dropped %d from line %d (%s)",
                label,
                source,
                loaded,
                dropped,
                number,
                bad_reason,
            )
            return report
        if entry.get("format") != expected_format:
            raise ConfigurationError(
                f"not a {expected_format} line "
                f"(format={entry.get('format')!r})"
            )
        try:
            apply(entry)
        except ConfigurationError:
            raise
        except (
            KeyError, TypeError, ValueError, AttributeError, ReproError
        ) as exc:
            raise ConfigurationError(
                f"{source}:{number}: bad {label} line: {exc}"
            ) from exc
        loaded += 1
    return RecoveryReport(path=str(source), kind="jsonl", loaded=loaded)


def atomic_write_text(
    path: str | Path, text: str, *, fsync: str = "data"
) -> Path:
    """Write ``text`` to ``path`` via write-temp-then-rename.

    A crash at any point leaves either the old complete file or the new
    complete file -- never a torn mix.  ``fsync`` is one of
    :data:`FSYNC_POLICIES`; see the module docstring for what each
    survives.
    """
    if fsync not in FSYNC_POLICIES:
        raise ConfigurationError(
            f"unknown fsync policy {fsync!r}; expected one of "
            f"{'/'.join(FSYNC_POLICIES)}"
        )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if fsync != "never":
                os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync == "always":
        # Persist the rename itself: fsync the directory entry.
        dir_fd = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return target


# ---------------------------------------------------------------------------
# sqlite: integrity check on open, quarantine on corruption
# ---------------------------------------------------------------------------


def quarantine_sqlite(db_path: str | Path) -> str:
    """Move a damaged database (and WAL/SHM siblings) aside; return where.

    The target name is ``<db>.quarantined-N`` for the first free ``N``:
    evidence for the operator, out of the way of the rebuild.
    """
    source = Path(db_path)
    n = 0
    while True:
        destination = source.with_name(f"{source.name}.quarantined-{n}")
        if not destination.exists():
            break
        n += 1
    os.replace(source, destination)
    for suffix in ("-wal", "-shm"):
        sibling = source.with_name(source.name + suffix)
        if sibling.exists():
            os.replace(
                sibling,
                destination.with_name(destination.name + suffix),
            )
    return str(destination)


def open_sqlite_checked(
    db_path: str, schema: str
) -> tuple[sqlite3.Connection, str | None]:
    """Connect, verify ``PRAGMA integrity_check``, apply the schema.

    Returns ``(connection, quarantined_path)``: ``quarantined_path`` is
    None for a healthy open, or where the damaged file was moved when
    corruption forced a fresh start.  A second failure on the fresh
    file is a real environment error and propagates.
    """
    quarantined: str | None = None
    for attempt in (0, 1):
        conn = sqlite3.connect(db_path, check_same_thread=False)
        try:
            if db_path != ":memory:":
                row = conn.execute("PRAGMA integrity_check").fetchone()
                verdict = row[0] if row else "empty integrity result"
                if verdict != "ok":
                    raise sqlite3.DatabaseError(
                        f"integrity_check: {verdict}"
                    )
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(schema)
            conn.commit()
            return conn, quarantined
        except sqlite3.DatabaseError as exc:
            conn.close()
            if attempt == 1 or db_path == ":memory:":
                raise
            quarantined = quarantine_sqlite(db_path)
            logger.warning(
                "corrupt sqlite store %s (%s): quarantined to %s, "
                "starting fresh",
                db_path,
                exc,
                quarantined,
            )
    raise AssertionError("unreachable")  # pragma: no cover
