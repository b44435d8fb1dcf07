"""The daemon's write-ahead journal, with a breaker-guarded fsync path.

Durability contract: :meth:`Journal.append` writes one JSON line,
flushes and fsyncs before returning True — a ticket whose ``submit``
record returned True survives ``kill -9``.  When the disk turns sick
(fsync raising ``OSError``, or — under chaos — fsync slower than
``slow_op_seconds``), the journal's :class:`CircuitBreaker` trips and
the journal degrades to *buffered* mode: records accumulate in a
bounded in-memory deque (the explicit loss window — a crash in this
mode loses at most ``max_buffered`` records, and ``dropped`` counts
any overflow beyond that).  Every append while the breaker is
half-open probes the real path again; the first success flushes the
whole backlog and closes the breaker.

Replay parsing lives here too (:func:`read_journal`) so corruption
recovery is testable without a daemon: torn tail lines, interleaved
partial records (valid JSON missing its keys) and duplicated terminal
records must all fold into one consistent ticket table.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set


class Journal:
    """Append-only JSONL journal with fsync durability and a breaker.

    ``fault_hook`` is the chaos seam: called as ``hook("journal-append")``
    inside the write path; it may sleep (slow-I/O fault) or raise
    ``OSError`` (failing disk).
    """

    def __init__(
        self,
        path: str,
        breaker=None,
        fault_hook: Optional[Callable[[str], None]] = None,
        slow_op_seconds: Optional[float] = None,
        max_buffered: int = 256,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = path
        self.breaker = breaker
        self.slow_op_seconds = slow_op_seconds
        self.max_buffered = max(1, int(max_buffered))
        self._fault_hook = fault_hook
        self._clock = clock
        self._lock = threading.Lock()
        self._buffered: "deque[str]" = deque()
        self._dropped = 0
        self._last_fsync: Optional[float] = None

    # -- appending ----------------------------------------------------

    def append(self, record: Dict[str, Any]) -> bool:
        """Durably append one record; returns True when it (and any
        buffered backlog) reached disk, False when it was buffered."""
        with self._lock:
            record = {"ts": self._clock(), **record}
            line = json.dumps(record, sort_keys=True)
            if self.breaker is not None and not self.breaker.allow():
                self._buffer_locked(line)
                return False
            backlog = list(self._buffered)
            try:
                elapsed = self._write_locked(backlog + [line])
            except OSError:
                if self.breaker is not None:
                    self.breaker.record_failure()
                self._buffer_locked(line)
                return False
            self._buffered.clear()
            self._last_fsync = self._clock()
            if self.breaker is not None:
                if self.slow_op_seconds is not None \
                        and elapsed > self.slow_op_seconds:
                    # The write landed but the disk is pathologically
                    # slow — count it toward tripping into buffered
                    # mode without losing the record.
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
            return True

    def _write_locked(self, lines: List[str]) -> float:
        """Write + flush + fsync ``lines``; returns the elapsed wall."""
        started = time.perf_counter()
        if self._fault_hook is not None:
            self._fault_hook("journal-append")
        with open(self.path, "a") as fh:
            for line in lines:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return time.perf_counter() - started

    def _buffer_locked(self, line: str) -> None:
        self._buffered.append(line)
        while len(self._buffered) > self.max_buffered:
            self._buffered.popleft()
            self._dropped += 1

    def flush(self) -> bool:
        """Best-effort drain of the buffered backlog (used at stop)."""
        with self._lock:
            if not self._buffered:
                return True
            try:
                self._write_locked(list(self._buffered))
            except OSError:
                return False
            self._buffered.clear()
            self._last_fsync = self._clock()
        return True

    # -- reporting ----------------------------------------------------

    @property
    def buffered(self) -> int:
        with self._lock:
            return len(self._buffered)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def last_fsync_age(self) -> Optional[float]:
        """Seconds since the last successful fsync (None before the
        first append)."""
        with self._lock:
            if self._last_fsync is None:
                return None
            return max(0.0, self._clock() - self._last_fsync)

    def stats(self) -> Dict[str, Any]:
        age = self.last_fsync_age()
        stats: Dict[str, Any] = {
            "buffered": self.buffered,
            "dropped": self.dropped,
            "last_fsync_age_s": round(age, 4) if age is not None else None,
        }
        if self.breaker is not None:
            stats["breaker"] = self.breaker.to_dict()
        return stats


# -- replay ------------------------------------------------------------

@dataclass
class JournalReplay:
    """The consistent ticket table folded out of one journal file."""

    submitted: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    finished: Set[str] = field(default_factory=set)
    dropped: int = 0                 # unreadable or partial records
    duplicate_terminals: int = 0     # terminal re-journaled for a ticket

    def pending(self) -> List[str]:
        """Tickets submitted but never journaled terminal, in
        submission order — the resume set."""
        return [ticket for ticket in self.submitted
                if ticket not in self.finished]


def read_journal(path: str) -> JournalReplay:
    """Parse a journal into a :class:`JournalReplay`, surviving every
    corruption class a crash can leave behind.

    * A torn tail (the crash interrupted the last write) fails JSON
      parsing and is dropped.
    * An interleaved partial record — a line that parses but is missing
      its op's required keys (``ticket``; ``job`` for submits) — is
      dropped rather than poisoning the table.
    * A duplicated terminal record (an older daemon's racing sweeps,
      or a replayed buffer) folds idempotently; ``duplicate_terminals``
      counts them for the report.
    * A ticket's records may come in any order: the drive loop can
      finish a job (a cache hit) before its submit record is written.

    Later records win for resubmission metadata, matching append order.
    """
    replay = JournalReplay()
    if not os.path.isfile(path):
        return replay
    with open(path) as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                replay.dropped += 1
                continue
            if not isinstance(record, dict):
                replay.dropped += 1
                continue
            op = record.get("op")
            ticket = record.get("ticket")
            if op == "submit":
                if not ticket or not isinstance(record.get("job"), dict):
                    replay.dropped += 1
                    continue
                replay.submitted[ticket] = record
            elif op == "terminal":
                if not ticket:
                    replay.dropped += 1
                    continue
                if ticket in replay.finished:
                    replay.duplicate_terminals += 1
                else:
                    replay.finished.add(ticket)
            else:
                replay.dropped += 1
    return replay
