"""Content-addressed result cache: cross-campaign reuse of measurements.

The cache is a tier *above* the per-campaign checkpoint store
(:mod:`repro.runner.store`): where a store answers "did **this campaign**
already run this point?", the cache answers "did **anyone, ever** run it?".
Both tiers use one entry format (stem, envelope, writer, validating reader
and ``*.corrupt`` quarantine, all in :mod:`repro.runner.store`), keyed by
``(config fingerprint, workload fingerprint, n_instrs)`` — the SHA-256 of
the canonical config JSON and of the workload's *content*.  The key is
therefore a full content address: any parameter change produces a different
key, two machines that merely share a ``name`` never collide, and two
workloads that share (or sanitise to) the same name never collide either.

Only exact hits are served: the stored :class:`RunResult` is returned
untouched, so a consumer that re-checkpoints it produces byte-identical
JSON.  A checkpoint directory written by :class:`~repro.runner.store
.ResultStore` is itself a valid cache directory.

What the cache adds over a checkpoint directory: first write wins (the
cache is content-addressed, so a re-put of the same key is a no-op), every
hit bumps the entry's mtime (the LRU clock), and :meth:`ResultCache.gc`
evicts least-recently used entries down to a byte budget — except
**pinned** entries (``*.pin`` sidecars, e.g. golden-parity baselines),
which are never evicted.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import CheckpointError
from ..runner.store import (
    EntryKey,
    parse_entry_name,
    quarantine,
    read_entry,
    workload_fingerprint,
    write_entry,
)
from ..sim.config import SimConfig
from ..sim.metrics import RunResult


@dataclass
class CacheStats:
    """Monotonic counters for one :class:`ResultCache` instance."""

    exact_hits: int = 0
    misses: int = 0
    puts: int = 0               #: entries actually written (re-puts skipped)
    evictions: int = 0
    corrupt_quarantined: int = 0


@dataclass
class _Entry:
    """Metadata of one on-disk entry (the ``ls``/``gc`` row)."""

    path: Path
    fingerprint_prefix: str
    workload: str
    n_instrs: int
    bytes: int
    mtime: float
    pinned: bool


class ResultCache:
    """Size-bounded, content-addressed result cache over a directory.

    Args:
        cache_dir: the shared entry directory (created if missing).  Unlike
            a checkpoint dir this is meant to be long-lived and shared
            across campaigns/daemons.
        max_bytes: optional byte budget; exceeding it after a put triggers
            an automatic LRU :meth:`gc`.
    """

    def __init__(
        self, cache_dir: str | Path, *, max_bytes: int | None = None
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- access

    def lookup(
        self, config: SimConfig, workload: str, n_instrs: int
    ) -> RunResult | None:
        """The stored result for this exact key, or ``None`` (a miss).

        A corrupt entry is quarantined and counts as a miss.
        """
        key = EntryKey.of(config, workload, n_instrs)
        path = self.cache_dir / key.filename
        try:
            result = read_entry(path, key)["result"]
        except FileNotFoundError:
            result = None
        except CheckpointError as exc:
            self.stats.corrupt_quarantined += 1
            quarantine(path, exc)
            result = None
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.exact_hits += 1
        self._touch(path)
        return result

    def put(
        self,
        config: SimConfig,
        workload: str,
        n_instrs: int,
        result: RunResult,
        *,
        pin: bool = False,
    ) -> bool:
        """Record one *measured* result; returns whether a write happened.

        Content-addressed: if the entry already exists the write is skipped
        (first write wins, which keeps exact hits byte-stable forever).
        """
        key = EntryKey.of(config, workload, n_instrs)
        path = self.cache_dir / key.filename
        if pin:
            self._pin_path(path).touch()
        if path.exists():
            return False
        write_entry(self.cache_dir, key, config, result)
        self.stats.puts += 1
        if self.max_bytes is not None and self.bytes() > self.max_bytes:
            self.gc()
        return True

    @staticmethod
    def _touch(path: Path) -> None:
        """Bump an entry's mtime (the LRU clock); best-effort."""
        try:
            os.utime(path)
        except OSError:
            pass

    # ------------------------------------------------------------ pinning

    @staticmethod
    def _pin_path(path: Path) -> Path:
        return path.with_suffix(path.suffix + ".pin")

    def _entry_path(self, fingerprint: str, workload: str, n_instrs: int) -> Path:
        key = EntryKey(
            fingerprint, workload_fingerprint(workload), workload, n_instrs
        )
        return self.cache_dir / key.filename

    def pin(self, fingerprint: str, workload: str, n_instrs: int) -> bool:
        """Protect one entry from eviction (golden baselines and the like)."""
        path = self._entry_path(fingerprint, workload, n_instrs)
        if not path.exists():
            return False
        self._pin_path(path).touch()
        return True

    def unpin(self, fingerprint: str, workload: str, n_instrs: int) -> bool:
        pin = self._pin_path(self._entry_path(fingerprint, workload, n_instrs))
        if not pin.exists():
            return False
        pin.unlink()
        return True

    # ----------------------------------------------------------- inventory

    def entries(self) -> list[_Entry]:
        """Metadata rows for every parseable entry (oldest first)."""
        rows = []
        for path in self.cache_dir.glob("*.json"):
            parsed = parse_entry_name(path.name)
            if parsed is None:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append(_Entry(
                path=path,
                fingerprint_prefix=parsed.fingerprint,
                workload=parsed.workload,
                n_instrs=parsed.n_instrs,
                bytes=stat.st_size,
                mtime=stat.st_mtime,
                pinned=self._pin_path(path).exists(),
            ))
        rows.sort(key=lambda e: (e.mtime, e.path.name))
        return rows

    def bytes(self) -> int:
        """Total entry bytes on disk."""
        return sum(entry.bytes for entry in self.entries())

    def __len__(self) -> int:
        return len(self.entries())

    # ----------------------------------------------------------- eviction

    def gc(
        self, max_bytes: int | None = None, *, dry_run: bool = False
    ) -> dict:
        """Evict least-recently-used unpinned entries down to a byte budget.

        Pinned entries are *never* evicted, even if the pins alone exceed
        the budget.  Returns a report dict (the ``gc`` CLI's JSON).
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        if budget is None:
            raise ValueError("gc needs a byte budget (max_bytes)")
        rows = self.entries()
        total = sum(row.bytes for row in rows)
        evicted: list[str] = []
        freed = 0
        for row in rows:  # oldest first: LRU order
            if total - freed <= budget:
                break
            if row.pinned:
                continue
            if not dry_run:
                try:
                    row.path.unlink()
                except OSError:
                    continue
                self.stats.evictions += 1
            evicted.append(row.path.name)
            freed += row.bytes
        return {
            "budget_bytes": budget,
            "bytes_before": total,
            "bytes_after": total - freed,
            "evicted": len(evicted),
            "freed_bytes": freed,
            "pinned_kept": sum(1 for row in rows if row.pinned),
            "dry_run": dry_run,
            "evicted_entries": evicted,
        }

    # ------------------------------------------------------------ telemetry

    def stats_dict(self) -> dict:
        """Counters plus a live size snapshot (the metrics provider)."""
        rows = self.entries()
        return dict(
            asdict(self.stats),
            entries=len(rows),
            bytes=sum(row.bytes for row in rows),
            pinned=sum(1 for row in rows if row.pinned),
            max_bytes=self.max_bytes,
        )
