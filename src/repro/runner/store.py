"""Disk-backed result store and the one on-disk result entry format.

Results are keyed by ``(config fingerprint, workload fingerprint,
n_instrs)``.  The config fingerprint is a SHA-256 over the *canonical
serialized configuration* (:func:`repro.sim.serialization.config_to_dict`);
the workload fingerprint (:func:`repro.plugins.workloads
.workload_fingerprint`) hashes what the workload *is* — kernel + parameters
for synthetic specs, trace-file content for ingested traces, the member
tuple for a mix — so a re-registered or out-of-tree workload under a reused
name can never alias another workload's result.  Names are display-only:
they appear in file stems for humans, never as identity.

This module owns the entry format that both persistent tiers — campaign
checkpoints (:class:`ResultStore`) and the cross-campaign result cache
(:class:`repro.cache.ResultCache`) — and the offline checker
(:mod:`repro.service.fsck`) share:

* **Stem** — ``<config fp 24>--<workload fp 16>--<safe name>--<n>.json``
  (:attr:`EntryKey.filename`, parsed back by :func:`parse_entry_name`).
* **Envelope** — ``{checkpoint_version, fingerprint, workload_fingerprint,
  config, workload, n_instrs, result}``, written durably and atomically by
  :func:`write_entry` (:func:`repro.ioutil.atomic_write_json`: fsync'd temp
  file + ``os.replace`` + directory fsync), so a crash at any instant never
  leaves a half entry behind.
* **Reader** — :func:`read_entry` validates schema, result payload and key;
  anything malformed raises :class:`~repro.errors.CheckpointError`.
* **Quarantine** — :func:`quarantine` renames a corrupt entry to
  ``*.corrupt`` (numbered on collision), so a corrupt file costs one
  re-simulation, never the campaign, and is never re-parsed.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import weakref
from pathlib import Path
from typing import NamedTuple

from ..errors import CheckpointError
from ..ioutil import atomic_write_json, io_backend
from ..obs import get_logger, log_event
from ..sim.config import SimConfig
from ..sim.metrics import RunResult
from ..sim.serialization import (
    RESULT_FORMAT_VERSION,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)

#: Schema version of the entry envelope (the file around the result).
CHECKPOINT_FORMAT_VERSION = 1

#: Fingerprint prefix lengths in entry file names.  The full digests are
#: stored (and verified) inside the entry, so the prefixes only need to be
#: collision-resistant per directory: 96 bits of config, 64 of workload.
FP_PREFIX = 24
WLFP_PREFIX = 16

_UNSAFE = re.compile(r"[^A-Za-z0-9._+-]+")
_HEX = re.compile(r"[0-9a-f]+\Z")

logger = get_logger("runner.store")


#: Process-wide fingerprint memo.  ``SimConfig`` is a frozen (hashable,
#: weakref-able) dataclass, so the digest of a given config object is
#: immutable — cache it once instead of re-serializing the full canonical
#: JSON on every submit/store/cache touch.  Weak keys keep campaign-sized
#: config churn from pinning dead configs in memory.
_FINGERPRINTS: "weakref.WeakKeyDictionary[SimConfig, str]" = (
    weakref.WeakKeyDictionary()
)


def config_fingerprint(config: SimConfig) -> str:
    """Stable hex digest of a configuration's canonical JSON form (memoized)."""
    fp = _FINGERPRINTS.get(config)
    if fp is None:
        canonical = json.dumps(config_to_dict(config), sort_keys=True)
        fp = hashlib.sha256(canonical.encode()).hexdigest()
        _FINGERPRINTS[config] = fp
    return fp


def workload_fingerprint(workload: str) -> str:
    """Content digest of a workload reference (one keying scheme repo-wide)."""
    from ..plugins.workloads import workload_fingerprint as _wfp

    return _wfp(workload)


# ------------------------------------------------------------ entry format


class EntryKey(NamedTuple):
    """One result's identity, plus the display name its stem carries.

    Two names that sanitise to the same stem and resolve to the same
    workload fingerprint are aliases: they share one entry.
    """

    fingerprint: str
    workload_fingerprint: str
    workload: str
    n_instrs: int

    @classmethod
    def of(cls, config: SimConfig, workload: str, n_instrs: int) -> "EntryKey":
        return cls(
            config_fingerprint(config), workload_fingerprint(workload),
            workload, n_instrs,
        )

    @property
    def identity(self) -> tuple[str, str, int]:
        return self.fingerprint, self.workload_fingerprint, self.n_instrs

    @property
    def filename(self) -> str:
        """``<config fp 24>--<workload fp 16>--<safe name>--<n>.json``."""
        safe = _UNSAFE.sub("_", self.workload) or "unnamed"
        return (
            f"{self.fingerprint[:FP_PREFIX]}--"
            f"{self.workload_fingerprint[:WLFP_PREFIX]}--{safe}--"
            f"{self.n_instrs}.json"
        )


def parse_entry_name(name: str) -> EntryKey | None:
    """Inverse of :attr:`EntryKey.filename`, with prefixes for fingerprints.

    Returns ``None`` for anything that is not an entry (a fleet
    ``manifest.json``, ``*.tmp``/``*.corrupt``/``*.pin`` siblings).  Both
    fingerprint segments are fixed-length hex and ``n_instrs`` is the
    trailing integer, so a sanitised name containing ``--`` still parses.
    """
    if not name.endswith(".json"):
        return None
    stem = name[:-len(".json")]
    head = FP_PREFIX + 2 + WLFP_PREFIX + 2
    fp, wfp = stem[:FP_PREFIX], stem[FP_PREFIX + 2:head - 2]
    if (
        len(stem) <= head
        or stem[FP_PREFIX:FP_PREFIX + 2] != "--"
        or stem[head - 2:head] != "--"
        or not _HEX.match(fp)
        or not _HEX.match(wfp)
    ):
        return None
    workload, sep, n_text = stem[head:].rpartition("--")
    if not sep or not workload or not n_text.isdigit():
        return None
    return EntryKey(fp, wfp, workload, int(n_text))


def write_entry(
    directory: Path, key: EntryKey, config: SimConfig, result: RunResult
) -> Path:
    """Durably write one result under ``key``; returns the entry path."""
    path = directory / key.filename
    atomic_write_json(path, {
        "checkpoint_version": CHECKPOINT_FORMAT_VERSION,
        "fingerprint": key.fingerprint,
        "workload_fingerprint": key.workload_fingerprint,
        "config": config_to_dict(config),
        "workload": key.workload,
        "n_instrs": key.n_instrs,
        "result": result_to_dict(result),
    })
    return path


def read_entry(path: Path, key: EntryKey | None = None) -> dict:
    """Parse and validate one entry; ``payload["result"]`` is a RunResult.

    With ``key``, the entry must also answer that key's identity.  A missing
    file raises :class:`FileNotFoundError` (a miss, not corruption); every
    other defect raises :class:`CheckpointError`.
    """
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable entry {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"entry {path} is not an object")
    if payload.get("checkpoint_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"entry {path} has version {payload.get('checkpoint_version')!r}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        stored = EntryKey(
            payload["fingerprint"], payload["workload_fingerprint"],
            payload["workload"], payload["n_instrs"],
        )
    except KeyError as exc:
        raise CheckpointError(f"entry {path} lacks {exc}") from exc
    if key is not None and stored.identity != key.identity:
        raise CheckpointError(f"entry {path} answers another key (renamed?)")
    result_payload = payload.get("result")
    if (
        not isinstance(result_payload, dict)
        or result_payload.get("format_version") != RESULT_FORMAT_VERSION
    ):
        raise CheckpointError(f"entry {path} has a bad result payload")
    try:
        payload["result"] = result_from_dict(result_payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"entry {path} failed to deserialize: {exc}"
        ) from exc
    return payload


def quarantine(path: Path, error: object) -> Path | None:
    """Move a corrupt entry aside to ``<name>.corrupt`` (numbered on collision).

    Returns the new path, or ``None`` when the rename itself failed (the
    caller then degrades to skip-and-count).  Logged at WARNING.
    """
    target = path.with_suffix(path.suffix + ".corrupt")
    serial = 0
    while target.exists():
        serial += 1
        target = path.with_suffix(f"{path.suffix}.corrupt.{serial}")
    try:
        io_backend().replace(path, target)
    except OSError:
        target = None
    log_event(
        logger, logging.WARNING, "quarantined corrupt entry",
        path=str(path), error=str(error),
        moved_to=str(target) if target else None,
    )
    return target


# ------------------------------------------------------------ the store


class ResultStore:
    """In-memory result cache with an optional on-disk checkpoint layer.

    Args:
        checkpoint_dir: directory for per-run JSON checkpoints; ``None``
            keeps the store memory-only (the default runner's behaviour,
            equivalent to the old per-process memoisation).
        resume: when true, previously checkpointed results are served from
            disk; when false an existing directory is only *written* to,
            never read (a fresh campaign that still checkpoints).
    """

    def __init__(
        self,
        checkpoint_dir: str | Path | None = None,
        *,
        resume: bool = False,
    ) -> None:
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.resume = resume
        self._memory: dict[tuple[str, str, int], RunResult] = {}
        #: Corrupt/wrong-schema checkpoint files skipped during reads.
        self.corrupt_skipped = 0
        #: Where each corrupt checkpoint was moved (``*.corrupt`` files).
        self.quarantined: list[Path] = []
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)

    def fingerprint(self, config: SimConfig) -> str:
        """The (process-wide memoized) :func:`config_fingerprint`."""
        return config_fingerprint(config)

    # ------------------------------------------------------------- access

    def get(
        self, config: SimConfig, workload: str, n_instrs: int
    ) -> RunResult | None:
        """Return a stored result, or ``None`` when the run must execute."""
        key = EntryKey.of(config, workload, n_instrs)
        hit = self._memory.get(key.identity)
        if hit is not None:
            return hit
        if self.checkpoint_dir is None or not self.resume:
            return None
        path = self.checkpoint_dir / key.filename
        try:
            result = read_entry(path, key)["result"]
        except FileNotFoundError:
            return None
        except CheckpointError as exc:
            self.corrupt_skipped += 1
            moved_to = quarantine(path, exc)
            if moved_to is not None:
                self.quarantined.append(moved_to)
            return None
        self._memory[key.identity] = result
        return result

    def put(
        self, config: SimConfig, workload: str, n_instrs: int, result: RunResult
    ) -> None:
        """Record one completed run (and checkpoint it if configured)."""
        key = EntryKey.of(config, workload, n_instrs)
        if self.checkpoint_dir is not None:
            # The memory layer is populated only *after* the durable write
            # lands: a checkpoint that hit ENOSPC/EIO must not leave a
            # phantom entry that would let a retry skip the re-write and
            # ack a result with no durable copy.
            write_entry(self.checkpoint_dir, key, config, result)
        self._memory[key.identity] = result

    # ------------------------------------------------------------- admin

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop the in-memory layer (disk checkpoints are kept)."""
        self._memory.clear()
