"""Rendering, expected-value tables, result caching, and VerificationError.

Like ``cubes`` and ``solver``, this module needs no numpy, so the commands
built on those three alone (``cubes``, ``solve``) never import it.  It
imports ``csv``, ``tempfile`` and ``logging`` inside the functions that
render CSV, write a file and warn, so a cache hit rendered as text or JSON
loads none of them.

Output files are byte-deterministic: CSV and JSON payloads never contain
timestamps or timings (the text report prints timing to the terminal only).
Cached results are keyed by the report's envelope (package version, a hash
of the cube data, command name and parameters) plus a hash of the package's
source files, so a repeat invocation returns instantly and a new version, a
code change or a change to the underlying cube data invalidates every cache
entry.  Each entry also holds a sha256 of its payload, so an entry edited
after it was written is discarded and recomputed like an unreadable one.  An
entry that cannot be written is skipped with a warning; the report is
written anyway.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from functools import lru_cache
from typing import NamedTuple

from . import __version__
from .cubes import build_tableau

__all__ = [
    "EXPECTED_SOLUTION_DISTRIBUTION",
    "EXPECTED_BUILDABLE_DISTRIBUTION",
    "EXPECTED_SUBSET_BUILD",
    "EXPECTED_UNIVERSAL_SETS",
    "Envelope",
    "ReportCache",
    "VerificationError",
    "data_hash",
    "render_csv",
    "render_text",
    "write_json",
]

# Expected values for --check.  Note the solution-number distribution: the
# published table puts the counts for 4, 6 and 8 ways under the wrong rows.
# The sweep that computes the table reads corner numbers, so it cannot settle
# the keying on its own.  A count from face colorings and rotations alone
# does: summed over all collections, the solution number counts the
# injective cell -> cube maps in which every cube fits its cell, and there
# are 449,580 of those for Ba.  The table below gives sum s * n(s) = 449,580;
# the published keying gives 407,442.
EXPECTED_SOLUTION_DISTRIBUTION = {
    2: 93000,
    4: 15987,
    6: 2664,
    8: 19860,
    10: 792,
    12: 1296,
    16: 81,
}
EXPECTED_BUILDABLE_DISTRIBUTION = {
    0: 2774940,
    1: 2256390,
    2: 720405,
    3: 91920,
    4: 8910,
    5: 360,
}
EXPECTED_SUBSET_BUILD = {
    8: {0: 441, 1: 18, 3: 36},
    9: {0: 36, 1: 72, 3: 112},
    10: {3: 12, 6: 6, 8: 36, 9: 12},
    11: {18: 12},
}
EXPECTED_UNIVERSAL_SETS = 10


class VerificationError(RuntimeError):
    """A cross-check between independent computations failed."""


def data_hash(tableau=None):
    """Stable hash of the cube data underlying every report."""
    tableau = tableau or build_tableau()
    blob = ";".join(
        "%s:%s:%s" % (c.name, "".join(map(str, c.coloring)), ",".join(map(str, c.corners)))
        for c in tableau
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@lru_cache(maxsize=1)
def _source_hash():
    """Stable hash of the package's own .py files, read once per process.

    It keys the report cache and stamps every scan checkpoint, so a change to
    any source file, ``__version__`` or the cube data invalidates both.
    """
    directory = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


class Envelope(NamedTuple):
    """Header identifying a report: tool, data, command and parameters."""

    command: str
    params: dict

    def as_dict(self, tableau=None):
        return {
            "tool": "madness",
            "version": __version__,
            "data_hash": data_hash(tableau),
            "command": self.command,
            "params": self.params,
        }


def render_csv(fieldnames, rows):
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_text(fieldnames, rows):
    """Aligned plain-text table."""
    widths = {f: len(str(f)) for f in fieldnames}
    for row in rows:
        for f in fieldnames:
            widths[f] = max(widths[f], len(str(row.get(f, ""))))
    lines = ["  ".join(str(f).ljust(widths[f]) for f in fieldnames)]
    for row in rows:
        lines.append("  ".join(str(row.get(f, "")).ljust(widths[f]) for f in fieldnames))
    return "\n".join(lines) + "\n"


class ReportCache:
    """JSON payload cache in a directory, keyed by the report's envelope and the source hash."""

    def __init__(self, directory):
        self.directory = directory

    def _path(self, command, params, tableau=None):
        entry = dict(Envelope(command, params).as_dict(tableau), source=_source_hash())
        key = json.dumps(entry, sort_keys=True)
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        return os.path.join(self.directory, f"{command}-{digest}.json"), key

    @staticmethod
    def _digest(payload):
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def load(self, command, params, tableau=None):
        path, key = self._path(command, params, tableau)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                stored = json.load(fh)
            if not isinstance(stored, dict) or stored.get("key") != key:
                raise ValueError("not an entry for this key")
            if stored.get("sha256") != self._digest(stored["payload"]):
                raise ValueError("payload does not match its digest")
            return stored["payload"]
        except (ValueError, KeyError, OSError) as exc:
            import logging

            logging.getLogger("madness").warning("discarding unreadable cache file %s (%s)", path, exc)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def store(self, command, params, payload, tableau=None):
        """Write the entry and return its path; if it cannot be written, warn and return None."""
        path, key = self._path(command, params, tableau)
        try:
            os.makedirs(self.directory, exist_ok=True)
            write_json(path, {"key": key, "payload": payload, "sha256": self._digest(payload)})
        except OSError as exc:
            import logging

            logging.getLogger("madness").warning("not storing cache file %s (%s)", path, exc.strerror or exc)
            return None
        return path


def write_json(path, obj):
    """Write ``obj`` as sorted-key JSON to ``path`` through a temporary file of its own.

    Concurrent writers of one path never share a temporary file, each
    replace is atomic, and a failed write leaves no temporary file behind.
    """
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj, sort_keys=True))    # dumps uses the C encoder; dump does not
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
