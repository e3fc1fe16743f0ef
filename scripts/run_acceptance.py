#!/usr/bin/env python3
"""Run the full verification battery and print one line per criterion.

Equivalent to `meshrep check`; exit code 1 on any failure.  The report lines
go to stdout and the per-suite and total times to stderr, so two stdout
captures can be compared with a plain diff.
"""

import sys
import time

from meshrep.suites import ALL_SUITES, CRITERION_TO_SUITE, run_seed


def main() -> int:
    seed = run_seed()
    failed = False
    t0 = time.time()
    for crit in sorted(CRITERION_TO_SUITE):
        name = CRITERION_TO_SUITE[crit]
        t1 = time.time()
        rep = ALL_SUITES[name](seed=seed)
        print(f"criterion {crit:2d}  {rep.line()}", flush=True)
        print(f"criterion {crit:2d}  {name}: {time.time() - t1:.1f}s", file=sys.stderr, flush=True)
        failed = failed or not rep.passed
    t1 = time.time()
    rep = ALL_SUITES["d4-square"](seed=seed)
    print(f"extra        {rep.line()}", flush=True)
    print(f"extra        d4-square: {time.time() - t1:.1f}s", file=sys.stderr, flush=True)
    failed = failed or not rep.passed
    print(f"total {time.time() - t0:.1f}s", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
