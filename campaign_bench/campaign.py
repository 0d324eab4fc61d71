"""One in-process fig10 campaign, run in a fresh interpreter.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 campaign_bench/campaign.py --workload kernel-catch --seed 1 \
        --work-dir DIR [--setup-only] [--trace-dir DIR]

Prints ``ready`` as soon as the first job is dispatchable (imports, plugin
registries, config validation: what ``setup_s`` times from the parent), then
runs the campaign and prints one JSON object as its last line.

The cold pass runs every pair serially through :class:`ExperimentRunner`
with a memory-only store and no result cache, exactly like
``python -m repro.experiments fig10 --quick``.  A fresh process per
campaign means trace building (memoised per process) is paid as a real
campaign pays it.  Each warm pass then re-runs the campaign on a fresh
runner whose result cache holds the cold results, so every pair resolves by
reading the cache.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    KERNEL_N_INSTRS,
    WORKLOAD_CONFIGS,
    campaign_pairs,
    fig10_err_pp,
    import_repro,
    layer_fractions,
    pair_key,
    preset_configs,
    result_digest,
)

#: Warm passes per campaign; their median is the repeat's warm_campaign_s.
WARM_REPEATS = 9


def _setup(workload: str):
    """Everything a campaign needs before its first job can be dispatched."""
    import_repro()
    from repro.plugins.workloads import workload_fingerprint
    from repro.runner import ExperimentRunner, ResultStore
    from repro.workloads.suites import QUICK_SUITE_NAMES, get_spec

    configs = preset_configs(WORKLOAD_CONFIGS[workload])
    for name in QUICK_SUITE_NAMES:
        get_spec(name)
        workload_fingerprint(name)
    return configs, ExperimentRunner(ResultStore())


def _timed_pass(runner, configs, order, n_instrs, errors):
    """Run ``order`` through ``runner``; returns (results, latencies, seconds)."""
    from repro.runner import validate_result

    results, latencies = {}, []
    t0 = time.perf_counter()
    for config, name in order:
        ts = time.perf_counter()
        try:
            results[pair_key(config, name)] = runner.run(
                configs[config], name, n_instrs
            )
        except Exception as exc:  # counted as a failed operation
            errors.append(f"{config}/{name}: {exc!r}")
            continue
        latencies.append(time.perf_counter() - ts)
    seconds = time.perf_counter() - t0
    for key, result in list(results.items()):
        try:
            validate_result(result)
        except Exception as exc:
            errors.append(f"{key}: {exc!r}")
            del results[key]
    return results, latencies, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("kernel-nocatch", "kernel-catch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    configs, runner = _setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_dir is not None:
        from tracer import LayerTracer

        tracer = LayerTracer().install()

    from repro.cache import ResultCache
    from repro.runner import ExperimentRunner, ResultStore
    from repro.workloads.suites import build_trace

    order = campaign_pairs(args.workload, args.seed)
    errors: list[str] = []
    cold, submit_s, campaign_s = _timed_pass(
        runner, configs, order, KERNEL_N_INSTRS, errors
    )
    digests = {key: result_digest(result) for key, result in cold.items()}
    summary = {
        "stepped": sum(2 * r.instructions for r in cold.values()),
        "fig10_err_pp": fig10_err_pp(cold) if len(cold) == len(order) else None,
        "fractions": layer_fractions(cold.values()),
    }

    cache_dir = args.work_dir / "cache"
    fill = ResultCache(cache_dir)
    for key, result in cold.items():
        config, _, name = key.partition("/")
        fill.put(configs[config], name, KERNEL_N_INSTRS, result)

    # A re-run with a warm --cache-dir starts in a fresh process, without
    # the cold pass's traces and results on the heap: drop them, so the
    # warm passes neither carry nor garbage-collect that state.
    del cold, runner
    build_trace.cache_clear()
    gc.collect()

    rng = random.Random(args.seed)
    warm_s, result_s = [], []
    lookups = hits = 0
    for _ in range(WARM_REPEATS):
        warm_order = list(order)
        rng.shuffle(warm_order)
        cache = ResultCache(cache_dir)
        warm_runner = ExperimentRunner(ResultStore(), cache=cache)
        warm, latencies, seconds = _timed_pass(
            warm_runner, configs, warm_order, KERNEL_N_INSTRS, errors
        )
        warm_s.append(seconds)
        result_s.extend(latencies)
        lookups += cache.stats.exact_hits + cache.stats.misses
        hits += cache.stats.exact_hits
        for key, result in warm.items():
            if result_digest(result) != digests.get(key):
                errors.append(f"{key}: warm result differs from cold")

    out = {
        "campaign_s": campaign_s,
        "warm_campaign_s": warm_s,
        "submit_s": submit_s,
        "result_s": result_s,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(order) * (1 + WARM_REPEATS),
        "errors": errors,
        "cache_hit_frac": hits / lookups if lookups else 0.0,
        **summary,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.write(args.trace_dir, args.workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
