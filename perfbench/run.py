"""bousslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root.  Workloads: reference, refinement, nonlinear
(see perfbench/README.md).  Each round of a workload runs in a fresh
interpreter (perfbench/child.py) that this process launches and waits for, one
at a time.  A run makes the whole number of rounds that comes closest to S
seconds, at least one.

--trace 0 reports the end-to-end metrics, medians over the rounds:
  setup_s      import of bousslab and bousslab.cli, median of at least
               SETUP_SAMPLES fresh interpreters (import-only ones fill up);
  wall_s       end of import to checked outputs;
  peak_rss_mb  peak resident memory of the round's interpreter (wait4).
--trace 1 runs rounds in pairs, one untraced and one traced, and reports the
per-layer metrics of the traced rounds (medians) and tracing.overhead_s, the
traced minus the untraced wall time.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics.  Failed operations and checks are listed on stderr.
"""

import argparse
import compileall
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("reference", "refinement", "nonlinear")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 5
# every run ends within this many seconds, or fails
DEADLINE_S = 170.0
# fixed so the figures do not depend on how many cores OpenBLAS finds
BLAS_THREADS = "1"


class BenchError(Exception):
    pass


class Runner:
    """Launches child interpreters from the repository root, one at a time."""

    def __init__(self, root: str, work: str, workload: str, tiny: bool, deadline: float):
        self.root, self.work, self.workload, self.tiny = root, work, workload, tiny
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS

    def _child(self, argv):
        """Run child.py; return (its JSON result, its peak RSS in MB)."""
        out_path = os.path.join(self.work, "child.out")
        with open(out_path, "wb") as out:
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *argv],
                                    cwd=self.root, env=self.env, stdout=out)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
                    raise BenchError(f"a {self.workload} round passed the {DEADLINE_S:.0f} s limit")
                time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            lines = fh.read().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child {argv} exited with code {proc.returncode}")
        return json.loads(lines[-1]), usage.ru_maxrss / 1024.0

    def setup_sample(self) -> float:
        return self._child(["--setup-only"])[0]["setup_s"]

    def round(self, trace: bool = False) -> dict:
        argv = ["--workload", self.workload, "--work", self.work]
        if self.tiny:
            argv.append("--tiny")
        if trace:
            argv += ["--trace", os.path.join(os.path.dirname(self.work),
                                             f"trace-{self.workload}.json")]
        result, rss = self._child(argv)
        result["peak_rss_mb"] = rss
        return result


def measure(runner: Runner, seconds: float, trace: bool):
    """Run rounds for about `seconds`; return (rounds, name -> value)."""
    start = time.monotonic()
    rounds, traced = [], []
    for done in itertools.count(1):
        plain = runner.round()
        rounds.append(plain)
        if trace:
            t = runner.round(trace=True)
            rounds.append(t)
            t["layers"]["tracing.overhead_s"] = t["wall_s"] - plain["wall_s"]
            traced.append(t["layers"])
        # whole rounds only: stop before one that would likely end more than
        # half a round past `seconds`, so the run comes closest to `seconds`
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / done > seconds:
            break
    if trace:
        return rounds, {name: statistics.median(t[name] for t in traced)
                        for name, _ in spans.PER_LAYER}
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup_sample())
    return rounds, {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="bousslab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes (self-test)")
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bousslab", "__init__.py")):
        print(f"perfbench: no src/bousslab under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # byte-compile once, so no round pays for it in setup_s
    compileall.compile_dir(src, quiet=1)
    work = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        inputs.write(work, args.seed, args.tiny)
        runner = Runner(root, work, args.workload, args.tiny, deadline)
        rounds, values = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in rounds for f in r["failures"]]
    problems = [p for r in rounds for p in r["problems"]]
    for f in dict.fromkeys(failures):
        print(f"perfbench: operation failed: {f}", file=sys.stderr)
    for p in dict.fromkeys(problems):
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    units = spans.PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
