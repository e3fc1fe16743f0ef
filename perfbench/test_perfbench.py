"""Tests of the benchmark itself.  Run: PYTHONPATH=src python3 -m pytest perfbench -q"""

import json
import subprocess
import sys
import types
from pathlib import Path

from run import CHILD, END_TO_END_UNITS, SRC, WORKLOADS, rep_seed
from tracer import SPAN_NAMES, Tracer, metric_units, original_bindings

ROOT = Path(__file__).resolve().parent.parent

INSTALL_CHECK = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer, meshrep_modules, original_bindings
import meshrep.derived, meshrep.highertri, meshrep.linalg, meshrep.suites
t = Tracer()
t.install()
assert original_bindings(t.originals.values(), meshrep_modules()) == []
orig = t.originals["linalg.rref"]
assert meshrep.linalg.rref is not orig
assert meshrep.derived.rref is meshrep.linalg.rref
assert meshrep.highertri.rref is meshrep.linalg.rref
print("ok")
"""


def test_install_leaves_no_original_binding():
    out = subprocess.run([sys.executable, "-c", INSTALL_CHECK, str(SRC), str(CHILD.parent)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "ok"


def test_binding_check_finds_leftovers():
    def original():
        pass

    def holder(f=original):
        return f

    mod = types.ModuleType("meshrep.fake")
    mod.alias = original
    mod.table = {"k": original}
    mod.holder = holder
    holder.__module__ = mod.__name__
    missed = original_bindings([original], [mod])
    assert sorted(missed) == ["meshrep.fake.alias", "meshrep.fake.holder default",
                              "meshrep.fake.table['k']"]


def test_summary_self_and_layer_times():
    t = Tracer()
    ids = {name: i for i, name in enumerate(SPAN_NAMES)}
    # decompose [0, 10] > rref.q [1, 4] > rref.q [2, 3]; then cone [12, 14]
    spans = [("rep.decompose", -1, 0, 10), ("linalg.rref.q", 0, 1, 4),
             ("linalg.rref.q", 1, 2, 3), ("derived.cone", -1, 12, 14)]
    for name, parent, start, end in spans:
        t.names.append(ids[name])
        t.parents.append(parent)
        t.starts.append(start)
        t.ends.append(end)
    out = t.summary(wall_s=20.0)
    assert out["rep.decompose.self_s"] == 7
    assert out["linalg.rref.q.calls"] == 2
    assert out["linalg.rref.q.self_s"] == 3
    assert out["linalg.self_s"] == 3 and out["linalg.total_s"] == 3
    assert out["rep.total_s"] == 10 and out["derived.total_s"] == 2
    assert out["suites.self_s"] == 8


def test_traced_child_matches_untraced():
    args = [sys.executable, str(CHILD), str(SRC), "census",
            json.dumps({"nmax": 3, "samples": 2}), "7"]
    runs = [json.loads(subprocess.run(args + [trace], capture_output=True, text=True,
                                      check=True).stdout.splitlines()[-1])
            for trace in ("0", "1", "1")]
    assert runs[0]["line"] == runs[1]["line"] == runs[2]["line"]
    assert runs[0]["line"].startswith("[PASS]")
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in runs[1:]]
    assert counts[0] == counts[1]
    assert counts[0]["rep.decompose.calls"] == 2 * 3 * 2
    assert counts[0]["highertri.canonical_phi.calls"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()


def test_rep_seeds_are_fixed_and_distinct():
    seeds = [rep_seed(s, r) for s in range(5) for r in range(20)]
    assert len(set(seeds)) == len(seeds)
    assert rep_seed(3, 4) == rep_seed(3, 4)
