#!/usr/bin/env python3
"""Time the census, AR, STC and Coxeter checks beyond the battery's sizes, one line per n.

For n = 8, 16 and 24 it times `decompose` over Q and over F5: the median of
three random interval sums, each over a random orientation of A_n.  For
n = 5, 6, 7, 8, 10, 12 and 16 it times one `suite_stc(samples=1, ns=[n])`
call and one build_ar + verify() + normalize round trip on a random interval
sum over linear A_n.  For n = 8 and 16 it times coxeter_minus(coxeter_plus(M))
over every interval module M of linear A_n over F_32003 and checks that each
returns M.  For k = 1..5 it times tensor_power(D, A5, k) for the duality
bimodule D of linear A5 over F_32003 and checks its total term dimension
(95, 531, 2,755, 13,763, 67,427; k = 6 runs out of memory).  Every random
input comes from the battery's default seed.  Opt-in: not part of the tests or
the benchmark.

    PYTHONPATH=src python3 scripts/scale.py
"""

import statistics
import sys
import time
from typing import Tuple

from meshrep.armesh import build_ar
from meshrep.bimod import duality_module
from meshrep.derived import Complex, normalize
from meshrep.functors import coxeter_minus, coxeter_plus
from meshrep.linalg import GF, QQ, FieldSpec
from meshrep.rep import all_intervals, decompose, interval_module, random_interval_sum
from meshrep.rng import default_rng
from meshrep.shapes import LineQuiver, embed_iQ
from meshrep.suites import DEFAULT_SEED, suite_stc
from meshrep.tilting import tensor_power

# total term dimension of tensor_power(D, A5, k) for k = 1..5
TENSOR_POWER_DIMS = (95, 531, 2755, 13763, 67427)


def decompose_time(n: int, field: FieldSpec, seed: int, samples: int = 3) -> Tuple[float, bool]:
    """(median seconds of decompose, whether it recovered every random interval sum)."""
    rng = default_rng(seed + n)
    times, ok = [], True
    for _ in range(samples):
        q = LineQuiver(n, "".join("FB"[i] for i in rng.integers(0, 2, size=n - 1)))
        x, multiset = random_interval_sum(q, field, rng)
        t0 = time.perf_counter()
        ok = decompose(q, x) == multiset and ok
        times.append(time.perf_counter() - t0)
    return statistics.median(times), ok


def ar_round_trip(n: int, seed: int) -> Tuple[int, bool]:
    """(total dimension of the input, whether the diagram verifies and round-trips)."""
    q = LineQuiver.linear(n)
    x, _ = random_interval_sum(q, GF(), default_rng(seed + n), max_total=3)
    c = Complex.from_rep(x)
    d = build_ar(q, c)
    ok = all(d.verify().values()) and normalize(q, d.restrict(q, embed_iQ(q))) == normalize(q, c)
    return c.total_dim(), ok


def coxeter_round_trip(n: int) -> Tuple[float, bool]:
    """(seconds spent in coxeter_minus(coxeter_plus(M)) over every interval
    module M of linear A_n, whether each returned M)."""
    q = LineQuiver.linear(n)
    secs, ok = 0.0, True
    for itv in all_intervals(n):
        c = Complex.from_rep(interval_module(q, itv.i, itv.j, GF()))
        t0 = time.perf_counter()
        back = coxeter_minus(q, coxeter_plus(q, c))
        secs += time.perf_counter() - t0
        ok = normalize(q, back) == normalize(q, c) and ok
    return secs, ok


def main() -> int:
    failed = False
    for n in (8, 16, 24):
        cells = []
        for field in (QQ, GF(5)):
            secs, ok = decompose_time(n, field, DEFAULT_SEED)
            failed = failed or not ok
            cells.append(f"{field} {secs:7.4f}s {'PASS' if ok else 'FAIL'}")
        print(f"n={n}  decompose " + "  ".join(cells), flush=True)
    for n in (5, 6, 7, 8, 10, 12, 16):
        t0 = time.perf_counter()
        rep = suite_stc(seed=DEFAULT_SEED, samples=1, ns=(n,))
        t1 = time.perf_counter()
        dim, ok = ar_round_trip(n, DEFAULT_SEED)
        t2 = time.perf_counter()
        failed = failed or not (rep.passed and ok)
        print(f"n={n}  stc {t1 - t0:7.2f}s {'PASS' if rep.passed else 'FAIL'}"
              f"  ar (input dim {dim}) {t2 - t1:7.2f}s {'PASS' if ok else 'FAIL'}", flush=True)
    for n in (8, 16):
        secs, ok = coxeter_round_trip(n)
        failed = failed or not ok
        print(f"n={n}  coxeter- coxeter+ on {n * (n + 1) // 2} intervals {secs:7.2f}s "
              f"{'PASS' if ok else 'FAIL'}", flush=True)
    q, field = LineQuiver.linear(5), GF()
    for k, want in enumerate(TENSOR_POWER_DIMS, start=1):
        t0 = time.perf_counter()
        dim = tensor_power(duality_module(q, field), q, k, field).total_dim()
        secs = time.perf_counter() - t0
        failed = failed or dim != want
        print(f"k={k}  tensor_power(D, A5) dim {dim} {secs:7.2f}s "
              f"{'PASS' if dim == want else 'FAIL'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
