"""Campaign benchmark: host time of a fig10 campaign, end to end and per layer.

Usage, from the root of a checkout::

    python3 campaign_bench/run.py --workload kernel-catch --seed 1 \
        --seconds 25 --trace 0

Workloads (see campaign_bench/README.md for why each exists):

* ``kernel-nocatch`` — {baseline_server, noL2_6.5MB, noL2_9.5MB} x the 8
  quick-suite workloads at 24,000 instructions, serially in-process;
* ``kernel-catch`` — {baseline_server, noL2_6.5MB+CATCH, noL2_9.5MB+CATCH,
  CATCH} x the same 8 workloads, same path;
* ``daemon-campaign`` — all 48 fig10 pairs at 1,000 instructions through a
  live ``python -m repro.service serve`` daemon, a cold and a warm pass.

``--trace 0`` repeats the campaign (each in a fresh process or a fresh
daemon) until ``--seconds`` have been spent, at least three times, and
reports medians of the end-to-end metrics.  ``--trace 1`` runs one untraced
and one traced campaign and reports the per-layer metrics.  Human-readable
detail goes to stderr and to ``.campaign_bench/<workload>.details.json``;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import daemon_campaign as dc  # noqa: E402
from common import (  # noqa: E402
    OUT,
    ROOT,
    campaign_pairs,
    child_env,
    fig10_err_pp,
    import_repro,
    layer_fractions,
    p50,
    p90,
    result_digest,
)
from tracer import layer_totals  # noqa: E402

WORKLOADS = ("kernel-nocatch", "kernel-catch", "daemon-campaign")
MIN_REPEATS = 3
KERNEL_SETUP_PROBES = 5
#: Jobs in the isolation-sizing slice of a traced daemon-campaign run.
ISOLATION_SLICE = 6

#: Per-layer metrics that only a daemon produces (0 on kernel-*).
SERVICE_METRICS = (
    "service.platform_ms_per_job",
    "service.done_cached_frac",
    "service.thread_isolation_ms_per_job",
    "service.process_isolation_ms_per_job",
)


class Outcome:
    """Attempted/failed bookkeeping plus the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"campaign_bench: FAILED {message}", file=sys.stderr)

    def absorb(self, out: dict) -> None:
        """Count a campaign child's operations and failures."""
        self.attempted += out["attempted"]
        for error in out["errors"]:
            self.fail(error)

    def check_digests(self, runs: list[dict]) -> dict:
        """Every pair's digest must be identical across runs."""
        first = runs[0]
        for other in runs[1:]:
            for key in sorted(set(first) | set(other)):
                if first.get(key) != other.get(key):
                    self.fail(f"{key}: result digest differs between repeats")
        return first


# ------------------------------------------------------------------ kernel


def spawn_campaign(workload: str, seed: int, work: Path, *,
                   setup_only: bool = False, trace_dir: Path | None = None):
    """Run campaign.py in a fresh interpreter; returns (setup_s, output)."""
    argv = [
        sys.executable, str(HERE / "campaign.py"), "--workload", workload,
        "--seed", str(seed), "--work-dir", str(work),
    ]
    if setup_only:
        argv.append("--setup-only")
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    with proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"campaign child failed (exit {proc.returncode})")
    return setup_s, (None if setup_only else json.loads(rest.splitlines()[-1]))


def kernel_e2e(workload: str, seed: int, seconds: float, work: Path, outcome: Outcome):
    t_start = time.perf_counter()
    setups, runs = [], []
    for i in range(KERNEL_SETUP_PROBES):
        setups.append(spawn_campaign(workload, seed, work / f"probe{i}", setup_only=True)[0])
    while len(runs) < MIN_REPEATS or time.perf_counter() - t_start < seconds:
        setup_s, out = spawn_campaign(workload, seed * 1000 + len(runs), work / f"rep{len(runs)}")
        setups.append(setup_s)
        runs.append(out)
    for out in runs:
        outcome.absorb(out)
    digests = outcome.check_digests([out["digests"] for out in runs])
    errs = {out["fig10_err_pp"] for out in runs}
    if len(errs) != 1 or None in errs:
        outcome.fail(f"fig10_err_pp not reproducible across repeats: {sorted(map(str, errs))}")
    campaign_s = p50([out["campaign_s"] for out in runs])
    submit_ms = [s * 1e3 for out in runs for s in out["submit_s"]]
    result_ms = [s * 1e3 for out in runs for s in out["result_s"]]
    metrics = {
        "campaign_s": campaign_s,
        "sim_kips": runs[0]["stepped"] / campaign_s / 1e3,
        "warm_campaign_s": p50([s for out in runs for s in out["warm_campaign_s"]]),
        "submit_p50_ms": p50(submit_ms),
        "submit_p90_ms": p90(submit_ms),
        "result_p50_ms": p50(result_ms),
        "setup_s": p50(setups),
        "peak_rss_mb": p50([out["peak_rss_mb"] for out in runs]),
        "fig10_err_pp": runs[0]["fig10_err_pp"],
    }
    samples = {"repeats": len(runs), "submit": len(submit_ms),
               "result": len(result_ms), "setup": len(setups)}
    return metrics, samples, digests


def kernel_layers(workload: str, seed: int, work: Path, trace_dir: Path, outcome: Outcome):
    _, plain = spawn_campaign(workload, seed, work / "plain")
    _, traced = spawn_campaign(workload, seed, work / "traced", trace_dir=trace_dir)
    for out in (plain, traced):
        outcome.absorb(out)
    digests = outcome.check_digests([plain["digests"], traced["digests"]])
    metrics = flatten_layers(layer_totals(traced["layers"]))
    metrics.update(traced["fractions"])
    metrics["cache.hit_frac"] = traced["cache_hit_frac"]
    metrics.update({name: 0.0 for name in SERVICE_METRICS})
    metrics["obs.trace_overhead_frac"] = traced["campaign_s"] / plain["campaign_s"] - 1
    return metrics, {"traced_campaign_s": traced["campaign_s"],
                     "untraced_campaign_s": plain["campaign_s"]}, digests


# ------------------------------------------------------------------ daemon


def _daemon_results(passed: dict, outcome: Outcome) -> dict:
    """Validated RunResults of one pass, keyed by pair."""
    from repro.runner import validate_result
    from repro.sim.serialization import result_from_dict

    results = {}
    for key, payload in passed["payloads"].items():
        try:
            results[key] = validate_result(result_from_dict(payload))
        except Exception as exc:
            outcome.fail(f"{key}: {exc!r}")
    return results


def _check_cycle(cycle: dict, jobs: int, outcome: Outcome) -> dict:
    """Count a cycle's operations and failures; returns the cold results."""
    cold, warm = cycle["cold"], cycle["warm"]
    outcome.attempted += 2 * jobs
    for error in cold["errors"] + warm["errors"]:
        outcome.fail(error)
    results = _daemon_results(cold, outcome)
    _daemon_results(warm, outcome)
    for key, payload in cold["payloads"].items():
        if json.dumps(payload, sort_keys=True) != json.dumps(
            warm["payloads"].get(key), sort_keys=True
        ):
            outcome.fail(f"{key}: warm payload differs from cold")
    return results


def _warm_not_cached(cycles: list[dict], jobs: int) -> int:
    """Warm jobs simulated instead of served from the cache (see README)."""
    return sum(jobs - c["warm"]["stats"]["counters"]["done_cached"] for c in cycles)


def _digests(results: dict) -> dict:
    return {key: result_digest(result) for key, result in results.items()}


def daemon_e2e(seed: int, seconds: float, work: Path, outcome: Outcome):
    t_start = time.perf_counter()
    order = campaign_pairs("daemon-campaign", seed)
    setups, cycles, results = [], [], []
    while len(cycles) < MIN_REPEATS or time.perf_counter() - t_start < seconds:
        cycle = dc.run_cycle(work / f"cycle{len(cycles)}", order)
        setups += cycle["setup_s"]
        results.append(_check_cycle(cycle, len(order), outcome))
        cycles.append(cycle)
    digests = outcome.check_digests([_digests(r) for r in results])
    first_results = results[0]
    campaign_s = p50([c["cold"]["makespan_s"] for c in cycles])
    submit_ms = [s for c in cycles for p in ("cold", "warm") for s in c[p]["submit_ms"]]
    # Warm pass only: a cold-pass GET competes for the GIL with the job the
    # executor is simulating, which campaign_s already measures.
    result_ms = [s for c in cycles for s in c["warm"]["result_ms"]]
    stepped = sum(2 * r.instructions for r in first_results.values())
    metrics = {
        "campaign_s": campaign_s,
        "sim_kips": stepped / campaign_s / 1e3,
        "warm_campaign_s": p50([c["warm"]["makespan_s"] for c in cycles]),
        "submit_p50_ms": p50(submit_ms),
        "submit_p90_ms": p90(submit_ms),
        "result_p50_ms": p50(result_ms),
        "setup_s": p50(setups),
        "peak_rss_mb": p50([c["peak_rss_mb"] for c in cycles]),
        "fig10_err_pp": fig10_err_pp(first_results),
    }
    samples = {"repeats": len(cycles), "submit": len(submit_ms),
               "result": len(result_ms), "setup": len(setups),
               "warm_not_cached": _warm_not_cached(cycles, len(order))}
    return metrics, samples, digests


def daemon_layers(seed: int, work: Path, trace_dir: Path, outcome: Outcome):
    order = campaign_pairs("daemon-campaign", seed)
    jobs = len(order)
    plain = dc.run_cycle(work / "plain", order)
    traced = dc.run_cycle(work / "traced", order, trace_dir=trace_dir)
    results = [_check_cycle(cycle, jobs, outcome) for cycle in (plain, traced)]
    digests = outcome.check_digests([_digests(r) for r in results])

    metrics = flatten_layers(layer_totals(*(
        json.loads((trace_dir / f"daemon-campaign-{phase}.layers.json").read_text())
        for phase in ("cold", "warm")
    )))
    metrics.update(layer_fractions(results[1].values()))
    hits = lookups = 0
    for phase in ("cold", "warm"):
        cache = traced[phase]["stats"]["cache"]
        hits += cache["exact_hits"]
        lookups += cache["exact_hits"] + cache["near_hits"] + cache["misses"]
    metrics["cache.hit_frac"] = hits / lookups if lookups else 0.0

    cold = plain["cold"]
    slice_order = order[:ISOLATION_SLICE]
    metrics.update({
        "service.platform_ms_per_job":
            (cold["makespan_s"] - dc.reported_run_s(cold["stats"])) * 1e3 / jobs,
        "service.done_cached_frac":
            plain["warm"]["stats"]["counters"]["done_cached"] / jobs,
        "service.thread_isolation_ms_per_job":
            dc.slice_ms_per_job(work / "slice-thread", slice_order, "thread"),
        "service.process_isolation_ms_per_job":
            dc.slice_ms_per_job(work / "slice-process", slice_order, "process"),
        "obs.trace_overhead_frac":
            traced["cold"]["makespan_s"] / cold["makespan_s"] - 1,
    })
    return metrics, {"traced_campaign_s": traced["cold"]["makespan_s"],
                     "untraced_campaign_s": cold["makespan_s"],
                     "warm_not_cached": _warm_not_cached([plain, traced], jobs)}, digests


# ------------------------------------------------------------------ output


def flatten_layers(totals: dict) -> dict:
    metrics = {}
    for layer, cell in totals.items():
        metrics[f"{layer}.calls"] = cell["calls"]
        metrics[f"{layer}.self_s"] = cell["self_s"]
    return metrics


def metric_units(trace: bool) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_repro()

    # Left in place: unlinking freshly fsync'd files costs tens of ms each
    # on common ext4 setups, so deleting a daemon's state would double a
    # run's wall time.  The directory is scratch, safe to delete any time.
    work = OUT / "work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    trace_dir = OUT / "trace"
    outcome = Outcome()
    if args.workload == "daemon-campaign":
        if args.trace:
            metrics, samples, digests = daemon_layers(args.seed, work, trace_dir, outcome)
        else:
            metrics, samples, digests = daemon_e2e(args.seed, args.seconds, work, outcome)
    elif args.trace:
        metrics, samples, digests = kernel_layers(
            args.workload, args.seed, work, trace_dir, outcome
        )
    else:
        metrics, samples, digests = kernel_e2e(
            args.workload, args.seed, args.seconds, work, outcome
        )

    units = metric_units(bool(args.trace))
    if set(units) != set(metrics):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    failed = len(outcome.errors)
    attempted = max(outcome.attempted, 1)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": metrics, "samples": samples,
        "failed_frac": failed / attempted, "errors": outcome.errors,
        "digests": digests,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}.details.json").write_text(json.dumps(details, indent=1) + "\n")
    for name in units:
        value = metrics[name]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:48s} {shown} {units[name]}", file=sys.stderr)
    print(f"  {'failed_frac':48s} {failed / attempted:>14.6g} ratio "
          f"({failed}/{attempted})  samples={samples}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
