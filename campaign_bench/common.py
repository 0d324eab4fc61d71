"""Pieces shared by the campaign benchmark's ``run.py`` and its child processes.

The benchmark lives beside the package it measures: ``src/repro`` of the
same checkout is put on ``sys.path`` (and on ``PYTHONPATH`` for children),
so it always measures the source tree it was checked out with.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for daemon state dirs, cache dirs and trace output.
OUT = ROOT / ".campaign_bench"

BASELINE = "baseline_server"

#: Figure 10 GeoMean bars of the paper, in percent (EXPERIMENTS.md, Fig 10).
PAPER_FIG10_PCT = {
    "noL2_6.5MB": -7.8,
    "noL2_9.5MB": -5.1,
    "noL2_6.5MB+CATCH": 4.5,
    "noL2_9.5MB+CATCH": 7.2,
    "CATCH": 8.4,
}

#: The configurations each workload runs; the workload list is always the
#: 8-workload quick suite.
WORKLOAD_CONFIGS = {
    "kernel-nocatch": (BASELINE, "noL2_6.5MB", "noL2_9.5MB"),
    "kernel-catch": (BASELINE, "noL2_6.5MB+CATCH", "noL2_9.5MB+CATCH", "CATCH"),
    "daemon-campaign": (BASELINE, *PAPER_FIG10_PCT),
}

KERNEL_N_INSTRS = 24_000
DAEMON_N_INSTRS = 1_000


def require_source() -> None:
    """Exit non-zero (before any measurement) when there is no package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"campaign_bench: no package source at {SRC / 'repro'}; run "
            "from the root of a full checkout"
        )


def import_repro() -> None:
    """Make ``import repro`` resolve to this checkout's source tree."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def campaign_pairs(workload: str, seed: int) -> list[tuple[str, str]]:
    """The workload's (config name, suite workload) pairs in seeded order.

    Config-major with the baseline first, as ``ExperimentRunner.sweep``
    runs fig10; the seed permutes the suite workloads, the same way in every
    config block.  So the set of pairs, every simulated result and which
    pairs pay trace building (the baseline's) are the same for every seed.
    """
    from repro.workloads.suites import QUICK_SUITE_NAMES

    names = list(QUICK_SUITE_NAMES)
    random.Random(seed).shuffle(names)
    return [(config, name) for config in WORKLOAD_CONFIGS[workload] for name in names]


def preset_configs(names) -> dict:
    """Validated :class:`SimConfig` objects for the given preset names."""
    from repro.sim.config import fig10_configs, skylake_server

    every = {c.name: c for c in (skylake_server(), *fig10_configs())}
    return {name: every[name].validate() for name in names}


def result_digest(result) -> str:
    """SHA-256 of the canonical ``RunResult`` JSON (telemetry excluded)."""
    from repro.sim.parity import canonical_result_json

    return hashlib.sha256(canonical_result_json(result).encode()).hexdigest()


def pair_key(config: str, workload: str) -> str:
    return f"{config}/{workload}"


def fig10_err_pp(results: dict) -> float:
    """Mean |GeoMean bar - paper bar| in percentage points.

    ``results`` maps ``"config/workload"`` to ``RunResult``; every non-
    baseline config present contributes its bar.
    """
    from repro.experiments.common import speedup_summary

    # Sorted, so the geomean multiplies in the same order for every seed.
    by_config: dict[str, dict] = {}
    for key, result in sorted(results.items()):
        config, _, workload = key.partition("/")
        by_config.setdefault(config, {})[workload] = result
    base = by_config[BASELINE]
    gaps = [
        abs(100.0 * speedup_summary(by_config[c], base)["GeoMean"] - paper)
        for c, paper in PAPER_FIG10_PCT.items()
        if c in by_config
    ]
    return sum(gaps) / len(gaps)


def layer_fractions(results) -> dict:
    """Ratios read from the results themselves (simulated, not host time)."""
    from repro.caches.hierarchy import Level

    loads = l1 = covered = issued = 0
    for result in results:
        loads += sum(result.load_served.values())
        l1 += result.load_served.get(Level.L1, 0)
        if result.tact_stats is not None:
            covered += result.tact_stats.demand_covered
            issued += result.tact_stats.issued
    return {
        "caches.l1_load_hit_frac": l1 / loads if loads else 0.0,
        "tact.useful_frac": covered / issued if issued else 0.0,
    }


def p50(samples) -> float:
    return statistics.median(samples)


def p90(samples) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[8]


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
