import json

import numpy as np
import pytest
from click.testing import CliRunner

from meshrep.bimod import identity_prof
from meshrep.cli import main
from meshrep.derived import Complex, normalize
from meshrep.linalg import GF, QQ, Matrix
from meshrep.rep import Rep, interval_module, random_interval_sum, random_rep
from meshrep.serialize import (bimodule_from_json, bimodule_to_json,
                               complex_from_json, complex_to_json, dumps,
                               rep_from_json, rep_to_json)
from meshrep.shapes import LineQuiver

F = GF(32003)


def test_rep_roundtrip():
    rng = np.random.default_rng(3)
    for field in (F, QQ):
        q = LineQuiver(3, "FB")
        x = random_rep(q, field, rng)
        back = rep_from_json(json.loads(dumps(rep_to_json(x))))
        assert back.dims == x.dims
        for cov in q.arrows():
            assert back.mats[cov] == x.mats[cov]


def test_complex_roundtrip():
    rng = np.random.default_rng(5)
    q = LineQuiver.linear(2)
    x, _ = random_interval_sum(q, F, rng)
    c = Complex.from_rep(x).shift(-2)
    back = complex_from_json(json.loads(dumps(complex_to_json(c))))
    assert normalize(q, back) == normalize(q, c)


def test_bimodule_roundtrip():
    q = LineQuiver(3, "BF")
    b = identity_prof(q, F)
    back = bimodule_from_json(json.loads(dumps(bimodule_to_json(b))))
    assert back.entry_pattern() == b.entry_pattern()


def test_cli_decompose_121():
    runner = CliRunner()
    q = LineQuiver.linear(3)
    rep = Rep(q.poset(), F, {1: 1, 2: 2, 3: 1},
              {(1, 2): Matrix.from_rows(F, [[1], [0]]),
               (2, 3): Matrix.from_rows(F, [[0, 1]])})
    payload = dumps(rep_to_json(rep))
    res = runner.invoke(main, ["decompose", "-q", "A3"], input=payload)
    assert res.exit_code == 0
    assert "M[1,2]" in res.output and "M[2,3]" in res.output


def test_cli_ar_quiver_zero_and_determinism():
    runner = CliRunner()
    res1 = runner.invoke(main, ["ar-quiver", "-q", "A2"])
    res2 = runner.invoke(main, ["ar-quiver", "-q", "A2"])
    assert res1.exit_code == 0
    assert res1.output == res2.output
    assert all('label="0"' in line for line in res1.output.splitlines()
               if "label" in line)


def test_cli_check_exit_codes():
    runner = CliRunner()
    res = runner.invoke(main, ["check", "golden"])
    assert res.exit_code == 0 and "[PASS]" in res.output
    res2 = runner.invoke(main, ["check", "no-such-suite"])
    assert res2.exit_code == 2


def test_cli_usage_error():
    runner = CliRunner()
    res = runner.invoke(main, ["reflect", "-q", "A3", "--interval", "1,1"])
    assert res.exit_code == 2  # missing --vertex
    # not a prime, not a number, and a prime beyond the exact-arithmetic bound
    for field in ("F4", "Fx", "F2147483647"):
        res = runner.invoke(main, ["decompose", "-q", "A2", "-f", field])
        assert res.exit_code == 2, field
        assert "Usage" in res.output


def test_cli_seed_env(monkeypatch):
    from meshrep.suites import run_seed
    monkeypatch.setenv("MESHREP_SEED", "424242")
    assert run_seed(7) == 424242
    monkeypatch.delenv("MESHREP_SEED")
    assert run_seed(7) == 7


def test_cli_check_seed_flag_wins_over_env(monkeypatch):
    """`check --seed` wins over MESHREP_SEED, which is used without the flag."""
    from meshrep.suites import ALL_SUITES, Report
    monkeypatch.setitem(ALL_SUITES, "census",
                        lambda seed, **kw: Report("census", True, f"seed {seed}"))
    runner = CliRunner()
    env = {"MESHREP_SEED": "424242"}
    res = runner.invoke(main, ["check", "census", "--seed", "7"], env=env)
    assert (res.exit_code, res.output) == (0, "[PASS] census: seed 7\n")
    res = runner.invoke(main, ["check", "census"], env=env)
    assert (res.exit_code, res.output) == (0, "[PASS] census: seed 424242\n")


def test_cli_input_must_match_quiver_and_field(tmp_path):
    """An input over another shape or field is a usage error, from a file or stdin."""
    runner = CliRunner()
    payload = dumps(rep_to_json(interval_module(LineQuiver.linear(3), 1, 3, F)))
    path = tmp_path / "m13.json"
    path.write_text(payload)
    for stdin in (False, True):
        def run(*args):
            src = [] if stdin else ["-i", str(path)]
            return runner.invoke(main, ["decompose", *args, *src], input=payload if stdin else None)
        res = run("-q", "A3")
        assert res.exit_code == 0 and res.output.strip() == "S^0M[1,3]"
        assert run("-q", "A3", "-f", "F32003").output.strip() == "S^0M[1,3]"
        for args in (["-q", "A2"], ["-q", "A4"], ["-q", "FB"], ["-q", "A3", "-f", "F5"]):
            res = run(*args)
            assert res.exit_code == 2 and "Usage" in res.output, (stdin, args)
    res = runner.invoke(main, ["reflect", "-q", "A4", "-a", "4", "-i", str(path)])
    assert res.exit_code == 2


def test_cli_tilt_sign_is_one_or_minus_one():
    """--sign picks C^+ or C^-; any other integer is a usage error."""
    runner = CliRunner()
    out = {s: runner.invoke(main, ["tilt", "-q", "A3", "--kind", "coxeter", "--sign", s])
           for s in ("1", "-1", "0", "7", "-2")}
    assert out["1"].exit_code == out["-1"].exit_code == 0
    assert out["1"].output != out["-1"].output
    for s in ("0", "7", "-2"):
        assert out[s].exit_code == 2 and "Usage" in out[s].output, s


@pytest.mark.parametrize("args", [
    ["ar-quiver", "-q", "A3", "--kmin", "0"],
    ["ar-quiver", "-q", "A3", "--kmax", "2"],
    ["ar-quiver", "-q", "A3", "--kmin", "3", "--kmax", "0"],
    ["ar-quiver", "-q", "A3", "--interval", "2"],
    ["ar-quiver", "-q", "A3", "--interval", "3,1"],
    ["ar-quiver", "-q", "A3", "--interval", "1,4"],
    ["reflect", "-q", "A3", "-a", "3", "--interval", "2"],
    ["reflect", "-q", "A3", "-a", "3", "--interval", "3,1"],
    ["reflect", "-q", "A3", "-a", "7", "--interval", "1,1"],
    ["reflect", "-q", "A3", "-a", "2", "--interval", "1,1"],
    ["tensor", "-q", "A3", "--interval", "0,1"],
    ["tilt", "-q", "A3", "--kind", "apr", "-a", "1"],
    ["tilt", "-q", "A3", "--kind", "apr", "-a", "9"],
    ["tilt", "-q", "A3", "--kind", "iter", "--target", "FFF"],
    ["transport", "-q", "A3", "--interval", "1,1", "--target", "FFF"],
    ["decompose", "-q", "A0"],
    ["ar-quiver", "-q", "a00"],
    ["transport", "-q", "A3", "--interval", "1,1", "--target", "A0"],
], ids=lambda a: " ".join(a))
def test_cli_bad_input_is_a_usage_error(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2 and "Usage" in res.output, res.output


def test_cli_good_windows_and_sinks_still_run():
    runner = CliRunner()
    for args in (["ar-quiver", "-q", "A3", "--interval", "1,3", "--kmin", "0", "--kmax", "0"],
                 ["tilt", "-q", "A3", "--kind", "apr", "-a", "3"],
                 ["reflect", "-q", "A3", "-a", "3", "--interval", "1,3"]):
        assert runner.invoke(main, args).exit_code == 0, args


@pytest.mark.parametrize("field", ["F32003", "Q"])
@pytest.mark.parametrize("quiver", ["FB", "BF"])
def test_cli_triangle_verify_on_other_orientations(quiver, field):
    """`triangle --verify` over a non-linear A_3 fills every interval module
    to a distinguished triangle: its reference is read from the Happel
    table of that orientation."""
    runner = CliRunner()
    for i in range(1, 4):
        for j in range(i, 4):
            res = runner.invoke(main, ["triangle", "-q", quiver, "-f", field,
                                       "--interval", f"{i},{j}", "--verify"])
            assert res.exit_code == 0 and "distinguished: True" in res.output, (i, j, res.output)
