"""One fresh interpreter of the benchmark: a set-up sample or one workload round.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload NAME --work DIR [--tiny] [--trace FILE]

Run from the repository root with its src/ first on PYTHONPATH (perfbench/run.py
does both).  Prints one JSON object on stdout:
  setup_s    time to import bousslab and bousslab.cli in this interpreter;
  wall_s     time from the end of that import to checked outputs;
  attempted, failures, problems   operations and the workload's checks;
  layers     per-layer metrics, when traced (--trace writes the spans to FILE).
"""

import argparse
import json
import os
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--work", help="directory holding the round's inputs and outputs")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", help="traced round: write the spans to this JSON file")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import bousslab
    import bousslab.cli  # noqa: F401
    t1 = time.perf_counter()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(bousslab.__file__).startswith(src + os.sep):
        print(f"bousslab was imported from {bousslab.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": t1 - t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(f"{args.workload}-{os.getpid()}")
        spans.install(tracer)
    import workloads
    outcome = workloads.WORKLOADS[args.workload](args.work, args.tiny)
    result["wall_s"] = time.perf_counter() - t1
    result.update(attempted=outcome.attempted, failures=outcome.failures,
                  problems=outcome.problems)
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
