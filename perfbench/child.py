"""One repetition of a benchmark workload, in a fresh interpreter.

usage: python3 perfbench/child.py SRC SUITE KWARGS_JSON SEED TRACE

Imports meshrep from SRC (and refuses any other copy), calls
`ALL_SUITES[SUITE](seed=SEED, **KWARGS)` once, and prints one JSON line with
`setup_end` (time.monotonic() just before the suite call), `wall_s` (suite
call to verdict), the report line, the peak RSS in MB and, when TRACE is 1,
the per-layer figures of `tracer.Tracer`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> None:
    src, suite, kwargs, seed, trace = sys.argv[1:6]
    sys.path.insert(0, src)
    import meshrep
    from meshrep.suites import ALL_SUITES
    home = os.path.join(os.path.realpath(src), "meshrep", "")
    if not os.path.realpath(meshrep.__file__).startswith(home):
        sys.exit(f"meshrep was imported from {meshrep.__file__}, not from {src}")
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run = ALL_SUITES[suite]
    kwargs = json.loads(kwargs)

    setup_end = time.monotonic()
    try:
        line = run(seed=int(seed), **kwargs).line()
    except Exception as exc:  # a raising suite is a failed operation, not a crash
        line = f"[ERROR] {suite}: {type(exc).__name__}: {exc}"
    wall_s = time.monotonic() - setup_end

    out = {"setup_end": setup_end, "wall_s": wall_s, "line": line,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["layers"] = tracer.summary(wall_s)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
