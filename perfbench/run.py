"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload td_timeline --seed 1 \
        --seconds 30 --trace 0

The command builds nothing: it imports the program from ``src/``. It runs
timed units of the workload (see ``workloads.py``) until ``--seconds`` have
been spent, checks every unit's output digest, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones; a
traced pass alternates traced and untraced units and writes its spans to
``.perfbench/spans-<workload>-<seed>.jsonl``. Exit code 0 means every
output was correct; 1 means a digest or an invariant check failed; 2 means
the program could not be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402

#: Expected output digest per workload and seed (``make_digests.py``).
DIGESTS = HERE / "digests.json"

#: Scratch result stores and span files, inside the checkout.
WORKDIR = ROOT / ".perfbench"

#: Samples of a short scenario build taken before the timed units.
SETUP_BUILDS = 6

#: Fewest timed units per pass, whatever ``--seconds`` says.
MIN_UNITS = 3

#: Fewest blocks behind ``block_p90_s`` where a unit runs many blocks: the
#: 90th percentile needs at least ten samples beyond it.
MIN_P90_BLOCKS = 100

#: Wall-clock cap on a pass, far below the 180 s a run may take.
MAX_PASS_SECONDS = 120.0

#: End-to-end metric units, in output order.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "epochs_per_s": "1/s",
    "block_p50_s": "s",
    "block_p90_s": "s",
    "peak_rss_mb": "MB",
    "words_per_epoch": "words",
    "rms_error": "ratio",
}

#: Spans whose normalized self time is a per-layer metric (``<span>_s``);
#: ``bench.harness`` is the benchmark's own time (bench.* spans, sampler).
LAYER_SPANS = (
    "network.topology",
    "tree.build",
    "core.scenario",
    "core.build_scheme",
    "core.converge",
    "core.build_simulator",
    "network.simulator.measure",
    "storage.append",
    "storage.writer",
    "service.open",
    "service.subscribe",
    "service.boundary_block",
    "service.steady_block",
    "service.drain",
    "bench.harness",
)

#: Per-layer counts, straight from the units.
LAYER_COUNTS = (
    "network.transmissions_per_epoch",
    "network.deliveries_per_epoch",
    "network.drops_per_epoch",
    "network.messages_per_epoch",
    "storage.records",
    "service.slots_mean",
    "service.shared_acquires",
    "service.admitted",
    "service.rejected",
    "service.records_delivered",
    "service.records_dropped",
)


def over_streams(units, value) -> float:
    """Mean over the pass's streams of ``value(units of one stream)``."""
    by_stream: Dict[int, list] = {}
    for unit in units:
        by_stream.setdefault(unit.seed, []).append(unit)
    return statistics.fmean(value(group) for group in by_stream.values())


def median_of(attribute: str):
    return lambda group: statistics.median(
        getattr(unit, attribute) for unit in group
    )


def block_decile(decile: int):
    """The ``decile``-th tenth of a stream's blocks (linear interpolation)."""
    return lambda group: statistics.quantiles(
        [block for unit in group for block in unit.blocks],
        n=10,
        method="inclusive",
    )[decile - 1]


def end_to_end(units, setup_samples: List[float]) -> Dict[str, float]:
    """End-to-end metrics over untraced units (normalized seconds)."""
    return {
        "run_s": over_streams(units, median_of("run")),
        "setup_s": statistics.median(setup_samples),
        "epochs_per_s": over_streams(
            units,
            lambda group: statistics.median(u.epochs / u.measure for u in group),
        ),
        "block_p50_s": over_streams(units, block_decile(5)),
        "block_p90_s": over_streams(units, block_decile(9)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "words_per_epoch": over_streams(units, median_of("words_per_epoch")),
        "rms_error": over_streams(units, median_of("rms_error")),
    }


def per_layer(traced, untraced, tracer: Tracer) -> Dict[str, float]:
    """Per-layer self times (normalized, median per traced unit) and counts."""
    metrics: Dict[str, float] = {}
    selves = []
    for unit in traced:
        sampler = unit.clock.sampler
        own = tracer.self_times(
            unit.run_id, lambda span: sampler.factor_between(span.start, span.end)
        )
        root = next(
            span for span in tracer.spans
            if span.run == unit.run_id and span.name == "bench.unit"
        )
        own["bench.harness"] = root.paused * sampler.factor + sum(
            v for k, v in own.items() if k.startswith("bench.")
        )
        selves.append(own)
    for span in LAYER_SPANS:
        metrics[f"{span}_s"] = statistics.median(
            own.get(span, 0.0) for own in selves
        )
    first = traced[0]
    for name in LAYER_COUNTS:
        metrics[name] = first.counts.get(name, 0.0)
    deliveries = metrics["network.deliveries_per_epoch"]
    drops = metrics["network.drops_per_epoch"]
    metrics["network.delivery_ratio"] = (
        deliveries / (deliveries + drops) if deliveries + drops else 0.0
    )
    every = traced + untraced
    metrics["kernels.fused_frac"] = statistics.fmean(
        statistics.fmean(unit.fused) for unit in every
    )
    metrics["host.calib_ms"] = 1e3 * statistics.median(
        probe for unit in every for probe in unit.clock.sampler.samples
    )
    metrics["wall.run_s"] = statistics.median(unit.wall for unit in untraced)
    metrics["trace.overhead_frac"] = (
        statistics.median(unit.run for unit in traced)
        / statistics.median(unit.run for unit in untraced)
        - 1.0
    )
    return metrics


def layer_units() -> Dict[str, str]:
    units = {f"{span}_s": "s" for span in LAYER_SPANS}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update(
        {
            "network.delivery_ratio": "ratio",
            "kernels.fused_frac": "ratio",
            "host.calib_ms": "ms",
            "wall.run_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


def enough(
    units, started: float, seconds: float, trace: bool, streams: int
) -> bool:
    """Whether the pass has measured long enough and sampled enough."""
    if len(units) < (2 * MIN_UNITS - 2 if trace else max(MIN_UNITS, streams)):
        return False
    elapsed = time.perf_counter() - started
    if elapsed > MAX_PASS_SECONDS:
        return True
    blocks = sum(len(unit.blocks) for unit in units)
    if len(units[0].blocks) >= 10 and blocks < MIN_P90_BLOCKS:
        return False
    return elapsed + elapsed / len(units) / 2 > seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            + ", ".join(sorted(workloads.WORKLOADS)),
            file=sys.stderr,
        )
        return 2
    table = json.loads(DIGESTS.read_text())

    workdir = WORKDIR
    workdir.mkdir(exist_ok=True)
    tracer = Tracer()
    setup_samples = []
    if workload.short_setup and not args.trace:
        setup_samples = [
            workload.setup_sample(args.seed, tracer)
            for _ in range(SETUP_BUILDS)
        ]
    streams = [
        args.seed * workload.replicas + k for k in range(workload.replicas)
    ]
    started = time.perf_counter()
    units = []
    while not enough(
        units, started, args.seconds, bool(args.trace), len(streams)
    ):
        tracer.run = len(units)
        tracer.record = bool(args.trace) and len(units) % 2 == 1
        gc.collect()  # each unit starts from the same heap
        stream = streams[len(units) % len(streams)]
        units.append(workload.unit(stream, tracer, str(workdir)))
    tracer.record = False

    failures = [message for unit in units for message in unit.failures]
    failed = len(failures)
    mismatches = []
    digests = {}
    for unit in units:
        digests.setdefault(unit.seed, set()).add(unit.digest)
    for stream, found in digests.items():
        if len(found) > 1:
            mismatches.append(f"stream {stream}: units disagree {sorted(found)}")
        else:
            (digest,) = found
            mismatch = workloads.check_digest(
                table, workload.name, stream, digest
            )
            if mismatch is not None:
                mismatches.append(mismatch)
    first = units[0]
    if str(first.seed) not in table.get(workload.name, {}):
        reference = workload.reference_digest(first.seed)
        if reference is not None and reference != first.digest:
            mismatches.append(
                f"{workload.name} stream {first.seed}: digest {first.digest}"
                f" != one-shot run_config_result digest {reference}"
            )
    if mismatches:
        # A wrong output fails every operation that produced it.
        failures.extend(mismatches)
        failed = sum(unit.operations for unit in units)
    for message in failures:
        print(f"perfbench: FAILED: {message}", file=sys.stderr)
    samples = [s for unit in units for s in unit.clock.sampler.samples]
    print(
        f"perfbench: {workload.name} seed {args.seed}: {len(units)} units, "
        f"{sum(len(unit.blocks) for unit in units)} blocks, "
        f"wall.run_s {statistics.median(unit.wall for unit in units):.3f}, "
        f"host.calib_ms {1e3 * statistics.median(samples):.4f}, digests "
        + ", ".join(f"{s}:{'/'.join(sorted(d))}" for s, d in digests.items()),
        file=sys.stderr,
    )

    untraced = [unit for unit in units if not unit.traced]
    if args.trace:
        traced = [unit for unit in units if unit.traced]
        values = per_layer(traced, untraced, tracer)
        units_of = layer_units()
        spans_path = workdir / f"spans-{workload.name}-{args.seed}.jsonl"
        tracer.write(spans_path)
    else:
        values = end_to_end(
            untraced,
            setup_samples + [unit.setup for unit in untraced],
        )
        units_of = END_TO_END
    attempted = sum(unit.operations for unit in units)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": min(attempted, failed),
                "metrics": {
                    name: {"value": values[name], "unit": units_of[name]}
                    for name in units_of
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
