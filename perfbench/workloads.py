"""The benchmark's workloads, driven through the program's public API.

Each workload runs *timed units*. A unit is one complete piece of work a
user would ask for: for the batch workloads one config built from scratch
and run to its complete result, for the service one session of a seeded
subscription schedule. Every call into a layer is timed from outside
while a :class:`calib.Sampler` samples host speed; the unit's timings are
normalized by its samples.

The workload seed drives the reading stream, the measurement channel and
the service schedule. The deployment and its tree stay fixed
(``scenario_seed`` 0), so every seed does the same set-up work. A
workload with ``replicas`` > 1 runs that many *streams* per seed (stream
seeds ``seed * replicas + k``), one per unit in turn, and the pass
averages over them: one TD timeline's words and wave cost move by a
sixth from one stream to the next, and a pass should report the
workload, not one draw of it.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import calib
from spans import Span, Tracer

from repro.api import (
    EngineOptions,
    QuerySpec,
    RunConfig,
    Scenario,
    config_digest,
    run_config_result,
)
from repro.kernels.sd import sd_eligible
from repro.kernels.tag import tag_eligible
from repro.kernels.td import td_eligible
from repro.network.failures import ComposedLoss
from repro.network.packed import build_packed_topology
from repro.network.simulator import EpochSimulator
from repro.registry import (
    SCHEMES,
    TOPOLOGIES,
    build_aggregate,
    build_failure_model,
    build_reading,
)
from repro.service.admission import AdmissionError
from repro.service.engine import AggregationService
from repro.service.streams import EpochRecord, QuerySubmit, Subscriber
from repro.storage import open_writer
from repro.tree.construction import build_bushy_tree

#: The public fused-path predicate of each scheme family.
ELIGIBLE: Dict[str, Callable[[object], bool]] = {
    "TAG": tag_eligible,
    "SD": sd_eligible,
    "TD": td_eligible,
}


class UnitClock:
    """One unit's layer calls, timed while a sampler watches host speed.

    Used as a context manager around the whole unit; call durations leave
    out the sampler's own time.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.sampler = calib.Sampler()
        self.calls: Dict[str, List[Span]] = {}

    def __enter__(self) -> "UnitClock":
        self.tracer.paused = lambda: self.sampler.spent
        self.sampler.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.sampler.__exit__(*exc)

    @contextmanager
    def call(self, name: str) -> Iterator[Span]:
        """Time one call into a layer."""
        with self.tracer.span(name) as span:
            yield span
        self.calls.setdefault(name, []).append(span)

    def seconds(self, name: str) -> List[float]:
        """Host-normalized duration of each call named ``name``."""
        factor = self.sampler.factor_between
        return [
            span.duration * factor(span.start, span.end)
            for span in self.calls.get(name, ())
        ]

    def total(self, names) -> float:
        """Host-normalized seconds of all calls with these names."""
        return sum(sum(self.seconds(name)) for name in names)

    def raw(self, names) -> float:
        """Wall seconds of all calls with these names."""
        return sum(
            span.duration for name in names for span in self.calls.get(name, ())
        )


@dataclass
class UnitResult:
    """What one timed unit did; times in host-normalized seconds."""

    clock: UnitClock
    run_id: int
    seed: int  # the unit's stream seed
    setup: float
    run: float
    wall: float  # ``run`` in wall seconds
    measure: float
    epochs: int
    blocks: List[float]
    digest: str
    words_per_epoch: float
    rms_error: float
    operations: int
    failures: List[str]
    fused: List[bool]
    counts: Dict[str, float] = field(default_factory=dict)
    traced: bool = False


def record_digest(rows) -> str:
    """Digest of a sequence of per-epoch output tuples (floats exactly)."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(_exact(row)).encode())
    return digest.hexdigest()[:16]


def _exact(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_exact(item) for item in value)
    return value


def relative_rms(pairs) -> float:
    """``RunResult.rms_error`` over ``(estimate, truth)`` pairs."""
    pairs = list(pairs)
    total = 0.0
    for estimate, truth in pairs:
        if truth != 0:
            deviation = (estimate - truth) / truth
            total += deviation * deviation
    return (total / len(pairs)) ** 0.5 if pairs else 0.0


def check_digest(table, workload: str, seed: int, digest: str) -> Optional[str]:
    """The failure message for a stream digest the stored table contradicts."""
    expected = table.get(workload, {}).get(str(seed))
    if expected is not None and expected != digest:
        return (
            f"{workload} stream {seed}: output digest {digest} != "
            f"expected {expected}"
        )
    return None


# -- batch workloads -------------------------------------------------------


@dataclass(frozen=True)
class BatchWorkload:
    """One config built from scratch and run to its result, per unit.

    ``chunk`` is the epoch count of each ``EpochSimulator.run`` call: the
    engine's own block (one adaptation interval for adaptive schemes), so
    driving in chunks adds no per-block cost a one-shot run would not pay.
    """

    name: str
    base: RunConfig
    chunk: int
    short_setup: bool
    replicas: int = 1

    def config(self, seed: int, store_dir: Optional[str] = None) -> RunConfig:
        """The seed's config; a ``store_dir`` relocates a result store."""
        config = self.base.replace(
            seed=seed, reading=f"uniform:10:100:{seed}"
        )
        if self.base.storage is not None and store_dir is not None:
            config = config.replace(storage=f"jsonl:{store_dir}")
        return config

    def build(self, config: RunConfig, clock: UnitClock):
        """Scenario and scheme, layer by layer as ``build_scenario`` does."""
        state = config.engine.state if config.engine is not None else None
        with clock.call("network.topology"):
            if state == "packed":
                topology = build_packed_topology(
                    config.topology, config.num_sensors, config.scenario_seed
                )
            else:
                topology = TOPOLOGIES.resolve(config.topology)(
                    num_sensors=config.num_sensors, seed=config.scenario_seed
                )
        with clock.call("tree.build"):
            tree = build_bushy_tree(topology.rings, seed=config.scenario_seed)
        with clock.call("core.scenario"):
            failure = build_failure_model(config.failure)
            base_loss = getattr(topology, "base_loss", None)
            if base_loss:
                failure = ComposedLoss(base_rates=base_loss, failure=failure)
            scenario = Scenario(
                config=config,
                topology=topology,
                tree=tree,
                source=build_reading(config.reading),
                failure=failure,
                entry=SCHEMES.resolve(config.scheme),
            )
        with clock.call("core.build_scheme"):
            scheme = scenario.build_scheme(build_aggregate(config.aggregate))
        return scenario, scheme

    def setup_sample(self, seed: int, tracer: Tracer) -> float:
        """One fresh scenario build, in normalized seconds."""
        with UnitClock(tracer) as clock, tracer.span("bench.setup"):
            scenario, scheme = self.build(self.config(seed), clock)
            with clock.call("core.build_simulator"):
                scenario.build_simulator(scheme)
        return clock.total(SETUP_CALLS)

    def unit(self, seed: int, tracer: Tracer, workdir: str) -> UnitResult:
        clock = UnitClock(tracer)
        store_dir = tempfile.mkdtemp(prefix="store-", dir=workdir)
        config = self.config(seed, store_dir)
        rows: List[Tuple[float, float, object]] = []
        writer = None
        fused: List[bool] = []

        def on_result(result) -> None:
            rows.append((result.estimate, result.true_value, result.log))
            if writer is not None:
                with clock.call("storage.append"):
                    writer.append(result)

        try:
            with clock, tracer.span("bench.unit"):
                scenario, scheme = self.build(config, clock)
                with clock.call("core.converge"):
                    scenario.converge(scheme, scenario.source)
                if config.storage is not None:
                    with clock.call("storage.writer"):
                        writer = open_writer(
                            config.storage, config_digest(config)
                        )
                with clock.call("core.build_simulator"):
                    simulator = scenario.build_simulator(
                        scheme, on_result=on_result
                    )
                eligible = ELIGIBLE[config.scheme.split("-")[0]]
                offset = 0
                while offset < config.epochs:
                    span = min(self.chunk, config.epochs - offset)
                    with clock.call("network.simulator.measure"):
                        simulator.run(
                            span,
                            scenario.source,
                            start_epoch=config.start_epoch + offset,
                        )
                    offset += span
                    with tracer.span("bench.fused_probe"):
                        fused.append(bool(eligible(simulator.scheme)))
                if writer is not None:
                    with clock.call("storage.writer"):
                        writer.close()
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

        logs = [log for _, _, log in rows]
        epochs = len(rows)
        counts = {
            "network.transmissions_per_epoch": _mean(
                log.transmissions for log in logs
            ),
            "network.deliveries_per_epoch": _mean(
                log.deliveries for log in logs
            ),
            "network.drops_per_epoch": _mean(log.drops for log in logs),
            "network.messages_per_epoch": _mean(
                log.messages_sent for log in logs
            ),
            "storage.records": float(writer.records if writer else 0),
        }
        blocks = clock.seconds("network.simulator.measure")
        # storage.append runs inside the measurement calls.
        run_calls = [name for name in clock.calls if name != "storage.append"]
        return UnitResult(
            clock=clock,
            run_id=tracer.run,
            seed=seed,
            traced=tracer.record,
            setup=clock.total(SETUP_CALLS),
            run=clock.total(run_calls),
            wall=clock.raw(run_calls),
            measure=sum(blocks),
            epochs=epochs,
            blocks=blocks,
            digest=record_digest(
                (estimate, log.words_sent) for estimate, _, log in rows
            ),
            words_per_epoch=_mean(log.words_sent for log in logs),
            rms_error=relative_rms((est, truth) for est, truth, _ in rows),
            operations=1,
            failures=[],
            fused=fused,
            counts=counts,
        )

    def reference_digest(self, seed: int) -> Optional[str]:
        """The digest of the one-shot ``run_config_result`` path."""
        config = self.config(seed).replace(retention="all", storage=None)
        result = run_config_result(config)
        return record_digest(
            (epoch.estimate, epoch.log.words_sent) for epoch in result.epochs
        )


#: Layer calls that make up one fresh scenario build.
SETUP_CALLS = (
    "network.topology",
    "tree.build",
    "core.scenario",
    "core.build_scheme",
    "core.build_simulator",
    "service.open",
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- the service workload --------------------------------------------------


#: Two closed-loop clients. Each submits its next subscription as soon as
#: the previous one completes; the seed shuffles each client's order. The
#: two families share no slot key, so slot sharing (``avg`` over ``sum``
#: and ``count``) happens inside a submission and is the same every seed.
#: Limits differ per client (20 vs 25 epochs), so every pairing of the
#: two clients' queries runs in every schedule.
SERVICE_CLIENTS: Tuple[Tuple[Tuple[Tuple[str, ...], ...], int], ...] = (
    (
        (
            ("SELECT count",),
            ("SELECT sum",),
            ("SELECT avg", "SELECT sum"),
            ("SELECT max",),
        ),
        20,
    ),
    (
        (
            ("SELECT distinct",),
            ("SELECT quantiles_qd:0.1",),
            ("SELECT count GROUP BY region:2",),
            ("SELECT avg WHERE value > 50",),
        ),
        25,
    ),
)


def drain(subscriber: Optional[Subscriber]):
    """What a subscription has queued: ``(records, close reason or None)``."""
    records: List[EpochRecord] = []
    if subscriber is not None:
        for item in subscriber.records(timeout=0):
            if isinstance(item, str):
                return records, None if item == "timeout" else item
            records.append(item)
    return records, None


@dataclass(frozen=True)
class ServiceWorkload:
    """One session of an in-process ``AggregationService`` per unit."""

    name: str
    base: RunConfig
    block_epochs: int
    clients: Tuple = SERVICE_CLIENTS
    short_setup: bool = True
    replicas: int = 1

    def config(self, seed: int) -> RunConfig:
        return self.base.replace(seed=seed, reading=f"uniform:10:100:{seed}")

    def schedule(self, seed: int) -> List[List[QuerySubmit]]:
        """Each client's submissions, in seeded order."""
        rng = random.Random(seed)
        plans = []
        for family, epochs in self.clients:
            order = list(family)
            rng.shuffle(order)
            plans.append(
                [
                    QuerySubmit(
                        queries=tuple(
                            QuerySpec(name=f"q{index}", query=text)
                            for index, text in enumerate(texts)
                        ),
                        epochs=epochs,
                    )
                    for texts in order
                ]
            )
        return plans

    def open(self, config: RunConfig, clock: UnitClock) -> AggregationService:
        with clock.call("service.open"):
            return AggregationService(config, block_epochs=self.block_epochs)

    def setup_sample(self, seed: int, tracer: Tracer) -> float:
        with UnitClock(tracer) as clock, tracer.span("bench.setup"):
            self.open(self.config(seed), clock).shutdown()
        return clock.total(SETUP_CALLS)

    def unit(self, seed: int, tracer: Tracer, workdir: str) -> UnitResult:
        clock = UnitClock(tracer)
        queues = self.schedule(seed)
        live: List[Optional[Subscriber]] = [None] * len(queues)
        served = [0] * len(queues)
        stream: List[tuple] = []
        words_by_epoch: Dict[int, int] = {}
        answers: List[Tuple[float, float]] = []
        failures: List[str] = []
        fused: List[bool] = []
        slots: List[int] = []
        operations = delivered = dropped = 0
        changed = False
        with clock, tracer.span("bench.unit"):
            service = self.open(self.config(seed), clock)
            while True:
                for client, queue in enumerate(queues):
                    if live[client] is None and queue:
                        operations += 1
                        try:
                            with clock.call("service.subscribe"):
                                live[client] = service.subscribe(queue.pop(0))
                        except AdmissionError as error:
                            failures.append(f"client {client}: {error}")
                            served[client] += 1
                            continue
                        changed = True
                if all(sub is None for sub in live):
                    break
                slots.append(service.planner.stats()["slots"])
                # A boundary block folds a portfolio change: a new
                # subscription, or the slots of one that just completed.
                name = "service.boundary_block" if changed else (
                    "service.steady_block"
                )
                with clock.call(name):
                    service.run_block()
                with tracer.span("bench.fused_probe"):
                    # The engine exposes no public handle on its live
                    # scheme; the predicate itself is public.
                    fused.append(bool(sd_eligible(service._sim.scheme)))
                with clock.call("service.drain"):
                    drained = [drain(sub) for sub in live]
                changed = False
                for client, (records, reason) in enumerate(drained):
                    for record in records:
                        results = tuple(
                            (key, answer.estimate, answer.truth)
                            for key, answer in sorted(record.results.items())
                        )
                        answers.extend((est, truth) for _, est, truth in results)
                        words_by_epoch[record.epoch] = record.words
                        stream.append(
                            (client, served[client], record.epoch, results,
                             record.words)
                        )
                    delivered += len(records)
                    if reason is None:
                        continue
                    sub = live[client]
                    stream.append((client, served[client], reason))
                    if reason != "complete" or sub.delivered != sub.limit:
                        failures.append(
                            f"client {client} subscription {served[client]} "
                            f"closed {reason!r} after {sub.delivered} records"
                        )
                    dropped += sub.dropped
                    live[client] = None
                    served[client] += 1
                    changed = True
            with tracer.span("bench.teardown"):
                stats = service.stats()
                service.shutdown()
        if dropped:
            failures.append(f"{dropped} records dropped")
        counts = {
            "service.slots_mean": _mean(slots),
            "service.shared_acquires": float(service.planner.shared_acquires),
            "service.admitted": float(stats["admission"]["admitted"]),
            "service.rejected": float(stats["admission"]["rejected"]),
            "service.records_delivered": float(delivered),
            "service.records_dropped": float(dropped),
        }
        blocks = clock.seconds("service.boundary_block") + clock.seconds(
            "service.steady_block"
        )
        run_calls = ("service.subscribe", "service.boundary_block",
                     "service.steady_block", "service.drain")
        return UnitResult(
            clock=clock,
            run_id=tracer.run,
            seed=seed,
            traced=tracer.record,
            setup=clock.total(SETUP_CALLS),
            run=clock.total(run_calls),
            wall=clock.raw(run_calls),
            measure=sum(blocks),
            epochs=stats["engine"]["epochs_run"],
            blocks=blocks,
            digest=record_digest(stream),
            words_per_epoch=_mean(words_by_epoch.values()),
            rms_error=relative_rms(answers),
            operations=operations,
            failures=failures,
            fused=fused,
            counts=counts,
        )

    def reference_digest(self, seed: int) -> Optional[str]:
        """No second public path drives a changing portfolio."""
        return None


WORKLOADS = {
    workload.name: workload
    for workload in (
        BatchWorkload(
            name="td_timeline",
            base=RunConfig(
                scheme="TD",
                failure="timeline",
                aggregate="sum",
                num_sensors=600,
                epochs=400,
                start_epoch=0,
                converge_epochs=120,
                adapt_interval=10,
            ),
            chunk=10,
            short_setup=True,
            replicas=4,
        ),
        BatchWorkload(
            name="scale_tag",
            base=RunConfig(
                scheme="TAG",
                topology="synthetic-scale",
                num_sensors=10_000,
                failure="global:0.2",
                aggregate="sum",
                epochs=100,
                engine=EngineOptions(state="packed"),
                retention="stream",
                storage="jsonl:.",  # a scratch directory per unit
            ),
            chunk=EpochSimulator.MAX_BLOCK_EPOCHS,
            short_setup=False,
        ),
        ServiceWorkload(
            name="service_portfolio",
            base=RunConfig(
                scheme="SD",
                failure="global:0.3",
                num_sensors=600,
                start_epoch=1000,
            ),
            block_epochs=5,
            replicas=2,
        ),
    )
}
