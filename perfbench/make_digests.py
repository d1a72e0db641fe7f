"""Regenerate ``digests.json``: the expected output digest per stream seed.

Usage, from the root of a checkout::

    python3 perfbench/make_digests.py --seeds 0-39

Batch workloads are digested through the one-shot ``run_config_result``
path, not through the benchmark's chunked driving, so the table also pins
that the benchmark drives the engine exactly as a plain run does. The
service has no second public path; its digests come from one session of
the benchmark's own schedule.

Regenerate only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # puts the program's src/ on the path
import workloads
from spans import Tracer

#: The seed tuned on, and the seed kept back to re-check claims on.
DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 37


def parse_seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-39")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    path = run.DIGESTS
    table = json.loads(path.read_text()) if path.exists() else {}
    table["development_seed"] = DEVELOPMENT_SEED
    table["held_out_seed"] = HELD_OUT_SEED
    names = args.workload or sorted(workloads.WORKLOADS)
    workdir = run.WORKDIR
    workdir.mkdir(exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        digests = table.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            for k in range(workload.replicas):
                stream = seed * workload.replicas + k
                digest = workload.reference_digest(stream)
                if digest is None:
                    digest = workload.unit(stream, Tracer(), str(workdir)).digest
                digests[str(stream)] = digest
                print(f"{name} stream {stream}: {digest}", flush=True)
        table[name] = dict(sorted(digests.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
