"""Time one cold ``EstimationService.register`` in a fresh process.

Run by ``run.py`` once per set-up sample: a new interpreter starts with
the program's process-wide caches (the ANALYZE statistics cache, the
data registry) empty, so each sample pays the full build.  Prints the
seconds as one JSON object on standard output.

    python3 perfbench/setup_probe.py --seed 1
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import bootstrap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    error = bootstrap.prepare()
    if error:
        print(f"setup_probe: {error}", file=sys.stderr)
        return 2
    from repro.serving import EstimationService, ServiceConfig

    import workloads

    table = workloads.make_data().table()
    service = EstimationService(ServiceConfig(), seed=args.seed)
    gc.collect()
    start = time.perf_counter()
    service.register(table, seed=workloads.DATA_SEED)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
