"""The meshrep benchmark: timed runs of battery suites, and a traced run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; meshrep is imported from the `src/` next to this
directory.  Every repetition is a fresh interpreter (perfbench/child.py) that
makes one suite call, the way `meshrep check <suite>` does, with a seed
derived from --seed and the repetition number.  One suite call is one
operation; it fails if it raises, returns FAIL, or prints a report line other
than the one recorded in WORKLOADS.

--trace 0 repeats for about S seconds (at least MIN_REPS times), each
repetition on another seed.  It reports `wall_s` (suite call to verdict) as
the mean over the repetitions without the lowest and the highest value, and
the medians of `setup_s` (interpreter start through `import meshrep` to the
suite call) and `peak_rss_mb`.

--trace 1 runs repetition 0 once untraced and twice traced, and reports the
per-layer figures of perfbench/tracer.py.  The traced report lines must equal
the untraced one and the two traced runs must give identical counts.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import count_metrics, metric_units

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "child.py"
MIN_REPS = 3
DEADLINE_S = 170  # a run must end within 180 s

# workload -> (suite, keyword arguments, report line recorded for every seed)
WORKLOADS = {
    "census": ("census", {"nmax": 6, "samples": 20},
               "[PASS] census: n(n+1)/2 classes for n<=6 and decompose recovered "
               "240 random sums over Q and F5"),
    "stc": ("stc", {"samples": 1, "ns": [2, 3, 4]},
            "[PASS] stc: STC0-STC3 on 1 random bases per n in [2, 3, 4], "
            "including the flip-sign negative control"),
    "kernels": ("kernels", {"nmax": 4, "oracle_pairs": 100},
                "[PASS] kernels: unit/inverse laws, 300 functor-kernel agreements (n<=4), "
                "bar oracle on 100 random pairs"),
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def rep_seed(seed: int, rep: int) -> int:
    """The suite seed of repetition `rep` of a run with --seed `seed`."""
    digest = hashlib.sha256(f"meshrep-bench/{seed}/{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value (three values or more).

    Repetitions run different inputs; the mean averages their costs better
    than a median, and trimming drops one stalled repetition.
    """
    values = sorted(values)
    return statistics.fmean(values[1:-1])


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MESHREP_SEED", None)  # it would override the explicit seed
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import cached bytecode, as an installed package does
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    def __init__(self, workload: str, deadline: float):
        self.suite, self.kwargs, self.expected = WORKLOADS[workload]
        self.deadline = deadline
        self.env = child_env()

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("out of time before the run finished")
        proc = subprocess.run([sys.executable, *args], env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc

    def warm_up(self) -> None:
        """Import once untimed, so no repetition pays for writing bytecode."""
        self._python("-c", "import sys; sys.path.insert(0, sys.argv[1]); import meshrep.suites",
                     str(SRC))

    def rep(self, seed: int, trace: bool) -> dict:
        start = time.monotonic()
        proc = self._python(str(CHILD), str(SRC), self.suite, json.dumps(self.kwargs),
                            str(seed), "1" if trace else "0")
        out = json.loads(proc.stdout.splitlines()[-1])
        out["setup_s"] = out["setup_end"] - start
        out["elapsed_s"] = time.monotonic() - start
        out["ok"] = out["line"] == self.expected
        if not out["ok"]:
            print(f"seed {seed}: expected {self.expected!r}\n got {out['line']!r}",
                  file=sys.stderr)
        return out


def timed_run(runner: Runner, seed: int, seconds: float) -> dict:
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start + reps[-1]["elapsed_s"] <= seconds:
        reps.append(runner.rep(rep_seed(seed, len(reps)), trace=False))
    # setup_s and peak_rss_mb repeat the same work each time: median
    summary = {"wall_s": trimmed_mean, "setup_s": statistics.median,
               "peak_rss_mb": statistics.median}
    metrics = {name: {"value": summary[name]([r[name] for r in reps]), "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    failed = sum(not r["ok"] for r in reps)
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def traced_run(runner: Runner, seed: int) -> dict:
    sub = rep_seed(seed, 0)
    plain = runner.rep(sub, trace=False)
    traced = [runner.rep(sub, trace=True) for _ in range(2)]
    reps = [plain, *traced]
    failed = sum(not r["ok"] for r in reps)
    same_lines = all(r["line"] == plain["line"] for r in traced)
    counts = [count_metrics(r["layers"]) for r in traced]
    if not same_lines:
        print("traced report line differs from the untraced one", file=sys.stderr)
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        print(f"counts differ between two traced runs: {diff}", file=sys.stderr)
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers.update(counts[0])
    layers["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                      / plain["wall_s"])
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in metric_units().items()}
    return {"correct": failed == 0 and same_lines and counts[0] == counts[1],
            "attempted": len(reps), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "meshrep" / "__init__.py").is_file():
        print(f"no meshrep sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, time.monotonic() + DEADLINE_S)
    try:
        runner.warm_up()
        result = (traced_run(runner, args.seed) if args.trace
                  else timed_run(runner, args.seed, args.seconds))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
