"""Command-line surface.

Exit codes: 0 pass, 1 check failure, 2 usage error.  The run seed of
`meshrep check` is its --seed when given, else MESHREP_SEED when set, else the
default seed.  All output is deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click
from click.core import ParameterSource

from .armesh import build_ar, merge_window_complex
from .bimod import (bar_tensor_oracle, cancel_tensor, duality_module,
                    from_left_complex, identity_prof, to_left_complex)
from .derived import Complex, normalize
from .linalg import GF, QQ, FieldSpec
from .rep import interval_module
from .functors import coxeter_plus, reflect_minus, reflect_plus, serre, transport
from .serialize import complex_from_json, complex_to_json, dumps, rep_from_json
from .shapes import LineQuiver, MeshWindow
from .suites import ALL_SUITES, run_seed
from . import tilting as tiltmod


def _field(name: str) -> FieldSpec:
    if name in ("Q", "QQ", "rationals"):
        return QQ
    if name.startswith("F"):
        try:
            return GF(int(name[1:]))
        except ValueError as err:
            raise click.UsageError(f"bad field {name!r}: {err}")
    raise click.UsageError(f"unknown field {name!r} (use Q or F<p>)")


def _quiver(spec: str) -> LineQuiver:
    """'FFB' or 'A4' (linear) or '-' for A1."""
    if spec.upper().startswith("A") and spec[1:].isdigit() and int(spec[1:]) >= 1:
        return LineQuiver.linear(int(spec[1:]))
    if spec == "-":
        return LineQuiver(1, "")
    if all(c in "FB" for c in spec):
        return LineQuiver(len(spec) + 1, spec)
    raise click.UsageError(f"bad quiver spec {spec!r}: use e.g. A3 or FFB")


def _target(q: LineQuiver, spec: str) -> LineQuiver:
    q2 = _quiver(spec)
    if q2.n != q.n:
        raise click.UsageError(f"--target {spec} has {q2.n} vertices, not {q.n}")
    return q2


def _load_complex(path: Optional[str], q: LineQuiver, f: FieldSpec) -> Complex:
    """The JSON rep or complex in path (stdin when path is None).  It must be
    over the poset of q and, when -f is given, over that field."""
    if path:
        with open(path) as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    if data.get("type") == "rep":
        c = Complex.from_rep(rep_from_json(data))
    else:
        c = complex_from_json(data)
    p = q.poset()
    if set(c.shape.elements) != set(p.elements) or set(c.shape.covers) != set(p.covers):
        raise click.UsageError(f"the input is over the shape {c.shape.name}, not over {q}")
    source = click.get_current_context().get_parameter_source("field")
    if source is not ParameterSource.DEFAULT and c.field != f:
        raise click.UsageError(f"the input is over {c.field}, not over -f {f}")
    return c


def _interval_complex(q: LineQuiver, spec: str, field: FieldSpec) -> Complex:
    try:
        i, j = (int(x) for x in spec.split(","))
    except ValueError:
        raise click.UsageError(f"bad interval {spec!r}: use i,j")
    if not 1 <= i <= j <= q.n:
        raise click.UsageError(f"bad interval {spec!r}: need 1 <= i <= j <= {q.n}")
    return Complex.from_rep(interval_module(q, i, j, field))


def _input_complex(q: LineQuiver, f: FieldSpec, interval: Optional[str],
                   input_path: Optional[str]) -> Optional[Complex]:
    """The --interval module, else the --input rep or complex, else None."""
    if interval:
        return _interval_complex(q, interval, f)
    if input_path:
        return _load_complex(input_path, q, f)
    return None


@click.group()
def main():
    """Exact computations with representations of A_n quivers."""


@main.command()
@click.option("--quiver", "-q", required=True, help="orientation string (FFB) or An")
@click.option("--field", "-f", default="F32003", show_default=True)
@click.option("--input", "-i", "input_path", type=click.Path(exists=True),
              help="JSON rep/complex; defaults to reading stdin")
def decompose(quiver, field, input_path):
    """Interval decomposition of a representation."""
    q = _quiver(quiver)
    out = normalize(q, _load_complex(input_path, q, _field(field)))
    click.echo(" + ".join(f"{m}*S^{s}M[{itv.i},{itv.j}]" if m > 1 else f"S^{s}M[{itv.i},{itv.j}]"
                          for (s, itv, m) in out.summands) or "0")


def _functor_command(name, fn):
    @main.command(name=name)
    @click.option("--quiver", "-q", required=True)
    @click.option("--field", "-f", default="F32003", show_default=True)
    @click.option("--interval", help="i,j for an interval module input")
    @click.option("--input", "-i", "input_path", type=click.Path(exists=True))
    @click.option("--vertex", "-a", type=int, help="sink/source for reflections")
    @click.option("--target", help="target orientation for transport")
    def cmd(quiver, field, interval, input_path, vertex, target):
        q = _quiver(quiver)
        c = _input_complex(q, _field(field), interval, input_path)
        if c is None:
            raise click.UsageError("need --interval or --input")
        q2, out = fn(q, c, vertex=vertex, target=target)
        norm = normalize(q2, out)
        click.echo(f"{q2.orientation or 'A1'}: {norm}")
    cmd.__name__ = name.replace("-", "_")
    return cmd


def _do_reflect(q, c, vertex=None, target=None):
    if vertex is None:
        raise click.UsageError("reflect needs --vertex")
    if vertex in q.sinks():
        return reflect_plus(q, vertex, c)
    if vertex in q.sources():
        return reflect_minus(q, vertex, c)
    raise click.UsageError(f"{vertex} is neither a sink nor a source of {q}")


def _do_coxeter(q, c, vertex=None, target=None):
    return q, coxeter_plus(q, c)


def _do_serre(q, c, vertex=None, target=None):
    return q, serre(q, c)


def _do_nakayama(q, c, vertex=None, target=None):
    dq = duality_module(q, c.field)
    return q, tiltmod.apply_bimodule(dq, q, c)


def _do_transport(q, c, vertex=None, target=None):
    if not target:
        raise click.UsageError("transport needs --target")
    q2 = _target(q, target)
    return q2, transport(q, q2, c)


_functor_command("reflect", _do_reflect)
_functor_command("coxeter", _do_coxeter)
_functor_command("serre", _do_serre)
_functor_command("nakayama", _do_nakayama)
_functor_command("transport", _do_transport)


@main.command("ar-quiver")
@click.option("--quiver", "-q", required=True)
@click.option("--field", "-f", default="F32003", show_default=True)
@click.option("--interval", help="i,j interval module input")
@click.option("--input", "-i", "input_path", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["dot", "tikz", "json"]), default="dot",
              show_default=True)
@click.option("--kmin", type=int, default=None)
@click.option("--kmax", type=int, default=None)
def ar_quiver(quiver, field, interval, input_path, fmt, kmin, kmax):
    """Emit the coherent AR quiver of a complex."""
    q = _quiver(quiver)
    f = _field(field)
    c = _input_complex(q, f, interval, input_path)
    if c is None:
        c = Complex.zero(q.poset(), f)
    if (kmin is None) != (kmax is None):
        raise click.UsageError("--kmin and --kmax go together")
    if kmin is not None and kmin > kmax:
        raise click.UsageError(f"empty window: --kmin {kmin} > --kmax {kmax}")
    window = MeshWindow(q.n, kmin, kmax) if kmin is not None else None
    d = build_ar(q, c, window=window)
    if fmt == "dot":
        click.echo(d.to_dot(), nl=False)
    elif fmt == "tikz":
        click.echo(d.to_tikz(), nl=False)
    else:
        click.echo(dumps(complex_to_json(merge_window_complex(d))))


@main.command()
@click.option("--quiver", "-q", required=True, help="middle quiver")
@click.option("--field", "-f", default="F32003", show_default=True)
@click.option("--left", type=click.Choice(["identity", "duality"]), default="duality",
              show_default=True, help="left tensor factor")
@click.option("--interval", required=True, help="i,j interval module as right factor")
@click.option("--oracle", is_flag=True, help="use the bar-construction oracle")
def tensor(quiver, field, left, interval, oracle):
    """Canceling tensor product of a canonical bimodule with a module."""
    q = _quiver(quiver)
    f = _field(field)
    m = identity_prof(q, f) if left == "identity" else duality_module(q, f)
    x = from_left_complex(q, _interval_complex(q, interval, f))
    out = bar_tensor_oracle(m, x) if oracle else cancel_tensor(m, x)
    click.echo(str(normalize(q, to_left_complex(out))))


@main.command()
@click.option("--quiver", "-q", required=True)
@click.option("--field", "-f", default="F32003", show_default=True)
@click.option("--kind", type=click.Choice(["apr", "iter", "coxeter"]), required=True)
@click.option("--vertex", "-a", type=int, help="sink for apr")
@click.option("--target", help="target orientation for iter")
@click.option("--sign", type=int, default=1, show_default=True, help="+1/-1 for coxeter")
def tilt(quiver, field, kind, vertex, target, sign):
    """Universal tilting bimodule kernels (entry pattern as JSON)."""
    q = _quiver(quiver)
    f = _field(field)
    if sign not in (1, -1):
        raise click.UsageError(f"--sign must be 1 or -1, not {sign}")
    if kind == "apr":
        if vertex not in q.sinks():
            raise click.UsageError(f"apr needs --vertex, a sink of {q}")
        t, _ = tiltmod.apr_tilt(q, vertex, f)
    elif kind == "iter":
        if not target:
            raise click.UsageError("iter needs --target")
        t = tiltmod.iter_tilt(_target(q, target), q, f)
    else:
        t = tiltmod.coxeter_bimodule(q, sign, f)
    pattern = {f"{a}|{b}": dims for (a, b), dims in sorted(t.entry_pattern().items())}
    click.echo(dumps({"schema": "meshrep/1", "type": "tilt-pattern", "entries": pattern}))


@main.command()
@click.argument("suites", nargs=-1)
@click.option("--seed", type=int, default=None,
              help="the run seed (default: MESHREP_SEED, else the default seed)")
@click.option("--fast", is_flag=True, help="reduced sample counts (not the acceptance gate)")
def check(suites, seed, fast):
    """Run verification suites (default: all).

    Known suites: census ar reflections frac-cy serre-duality nakayama
    kernels golden tilting picard mesh yoneda stc d4-square
    """
    names = list(suites) if suites else list(ALL_SUITES)
    bad = [n for n in names if n not in ALL_SUITES]
    if bad:
        raise click.UsageError(f"unknown suites: {bad}")
    s = seed if seed is not None else run_seed()
    failed = False
    for name in names:
        kwargs = {"seed": s}
        if fast and name == "census":
            kwargs["samples"] = 30
        if fast and name == "stc":
            kwargs["samples"] = 10
        rep = ALL_SUITES[name](**kwargs)
        click.echo(rep.line())
        failed = failed or not rep.passed
    sys.exit(1 if failed else 0)


@main.command()
@click.option("--quiver", "-q", required=True, help="An for the base quiver")
@click.option("--field", "-f", default="F32003", show_default=True)
@click.option("--interval", help="i,j interval module base")
@click.option("--input", "-i", "input_path", type=click.Path(exists=True))
@click.option("--verify", "do_verify", is_flag=True, help="check distinguishedness")
def triangle(quiver, field, interval, input_path, do_verify):
    """Fill a base to a standard n-triangle (and optionally verify it)."""
    from .highertri import is_distinguished, standard_triangle
    q = _quiver(quiver)
    c = _input_complex(q, _field(field), interval, input_path)
    if c is None:
        raise click.UsageError("need --interval or --input")
    t = standard_triangle(q, c)
    lines = []
    for v in t.interior():
        h = t.hdim(v)
        if h:
            lines.append(f"({v[0]},{v[1]}): " + " + ".join(f"k^{m}[{d}]" for d, m in sorted(h.items())))
    click.echo("\n".join(lines) or "0")
    if do_verify:
        ok = is_distinguished(t)
        click.echo(f"distinguished: {ok}")
        sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
