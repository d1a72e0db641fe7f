"""Scale benchmark: words-vs-N and peak-memory-vs-N for the memory-lean tier.

Runs a short TAG timeline at growing deployment sizes through the full
scale stack — ``synthetic-scale`` topology (constant density, so the area
grows with N instead of the neighbor lists), ``engine.state = "packed"``
node state, ``retention = "stream"`` so no epoch timeline accumulates in
RAM, and a ``jsonl`` result store so every epoch still lands somewhere
durable. Per size it records:

* ``words_per_epoch`` — the channel bill (the paper's y-axis), derived
  from the streamed :class:`~repro.network.simulator.RunningStats`;
* ``elapsed_s`` — wall-clock of the whole run (topology build included),
  timed in a pass without tracemalloc;
* ``tree_build_s`` — the part of ``elapsed_s`` spent in
  ``build_bushy_tree``;
* ``tracemalloc_peak_mb`` — peak python-visible allocations of the run
  (numpy buffers included), the apples-to-apples memory curve, taken in a
  second, traced pass of the same run;
* ``results_identical`` — the two passes produced the same result;
* ``ru_maxrss_kb`` — the kernel's whole-process resident high-water mark.

The record also carries the host's ``cpu_count`` and lands in
``results/scale_curve.json`` (committed, uploaded as a CI artifact by the
``scale-smoke`` job). Run standalone::

    PYTHONPATH=src python benchmarks/bench_scale.py [--sizes N [N ...]]
        [--epochs E] [--full] [--out PATH] [--max-peak-mb MB]

``--full`` appends the 100k-node acceptance point (about two minutes,
most of it in the traced pass).
``--max-peak-mb`` turns the largest size's tracemalloc peak into a hard
gate — the CI smoke job uses it as the memory ceiling.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import time
import tracemalloc
from contextlib import contextmanager

RESULT_NAME = "scale_curve.json"

#: Default curve points: small enough for a laptop, large enough that a
#: retained-timeline run would visibly bend the memory curve.
DEFAULT_SIZES = (1000, 5000, 20000)

#: The scale tier's acceptance point, appended by ``--full``.
FULL_SIZE = 100_000

#: Size of the discarded warm-up run that precedes the curve.
WARM_UP_SIZE = 200


@contextmanager
def tree_build_clock():
    """Accumulate the seconds ``run_config_result`` spends building trees.

    ``build_scenario`` calls ``repro.api.build_bushy_tree``; for the
    duration of the block that reference is a timed wrapper around the
    real builder. Yields a one-element list holding the running total.
    """
    import repro.api as api

    build = api.build_bushy_tree
    spent = [0.0]

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - started

    api.build_bushy_tree = timed
    try:
        yield spent
    finally:
        api.build_bushy_tree = build


def measure_point(num_sensors: int, epochs: int, store_dir: str, seed: int = 0) -> dict:
    """One curve point: a packed, streamed, spilled TAG run at one size.

    The run is made twice: once timed, once under tracemalloc, so the
    tracer's per-allocation cost never lands in the timings.
    """
    from repro.api import (
        EngineOptions,
        RunConfig,
        RunReport,
        config_digest,
        run_config_result,
    )
    from repro.serialization import to_jsonable
    from repro.storage import count_epochs

    config = RunConfig(
        scheme="TAG",
        aggregate="sum",
        failure="none",
        topology="synthetic-scale",
        num_sensors=num_sensors,
        epochs=epochs,
        converge_epochs=0,
        reading="uniform:10:100:0",
        seed=seed,
        engine=EngineOptions(state="packed"),
        retention="stream",
        storage=f"jsonl:{store_dir}",
    )
    with tree_build_clock() as tree_build:
        started = time.perf_counter()
        result = run_config_result(config)
        elapsed_s = time.perf_counter() - started
    tracemalloc.start()
    traced = run_config_result(config)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    report = RunReport(config=config, result=result)
    stored = count_epochs(config.storage, config_digest(config))
    return {
        "num_sensors": num_sensors,
        "epochs": epochs,
        "retained_epochs": len(result.epochs),
        "stored_epochs": stored,
        "words_per_epoch": report.words_per_epoch(),
        "rms_error": report.rms_error(),
        "results_identical": to_jsonable(result) == to_jsonable(traced),
        "tracemalloc_peak_bytes": peak,
        "tracemalloc_peak_mb": round(peak / 1e6, 3),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "elapsed_s": round(elapsed_s, 3),
        "tree_build_s": round(tree_build[0], 3),
    }


def run_curve(sizes, epochs: int, store_dir: str) -> dict:
    # A throwaway small run first, so lazy imports and first-use set-up
    # land in no point's timing or traced peak.
    measure_point(WARM_UP_SIZE, 1, store_dir)
    points = []
    for num_sensors in sizes:
        point = measure_point(num_sensors, epochs, store_dir)
        points.append(point)
        print(
            f"  N={num_sensors:>7d}: words/epoch={point['words_per_epoch']:.0f} "
            f"peak={point['tracemalloc_peak_mb']:.1f}MB "
            f"rss={point['ru_maxrss_kb']}kB "
            f"elapsed={point['elapsed_s']}s tree={point['tree_build_s']}s",
            flush=True,
        )
    return {
        "benchmark": "scale",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cpu_count": os.cpu_count(),
        "scheme": "TAG",
        "topology": "synthetic-scale",
        "state": "packed",
        "retention": "stream",
        "store": "jsonl",
        "epochs": epochs,
        "points": points,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_SIZES),
        help=f"deployment sizes to measure (default {list(DEFAULT_SIZES)})",
    )
    parser.add_argument(
        "--epochs", type=int, default=50, help="epochs per point (default 50)"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help=f"append the {FULL_SIZE}-node acceptance point",
    )
    parser.add_argument("--out", type=pathlib.Path, default=None)
    parser.add_argument(
        "--store-dir",
        type=pathlib.Path,
        default=None,
        help="jsonl spill directory (default: a temp dir, discarded)",
    )
    parser.add_argument(
        "--max-peak-mb",
        type=float,
        default=None,
        help=(
            "exit non-zero if any point's tracemalloc peak exceeds this "
            "many MB (the CI scale-smoke memory ceiling)"
        ),
    )
    args = parser.parse_args()
    sizes = list(args.sizes)
    if args.full and FULL_SIZE not in sizes:
        sizes.append(FULL_SIZE)
    if args.store_dir is not None:
        store_dir = str(args.store_dir)
        record = run_curve(sizes, args.epochs, store_dir)
    else:
        import tempfile

        with tempfile.TemporaryDirectory() as store_dir:
            record = run_curve(sizes, args.epochs, store_dir)
    text = json.dumps(record, indent=2)
    out = args.out or (pathlib.Path(__file__).parent / "results" / RESULT_NAME)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    print(f"wrote {out}")
    if args.max_peak_mb is not None:
        worst = max(point["tracemalloc_peak_mb"] for point in record["points"])
        if worst > args.max_peak_mb:
            print(
                f"FAIL: peak traced memory {worst:.1f}MB exceeds the "
                f"{args.max_peak_mb:.0f}MB ceiling"
            )
            return 1
        print(
            f"peak traced memory {worst:.1f}MB within the "
            f"{args.max_peak_mb:.0f}MB ceiling"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
