"""JSON serialization for shapes, reps, complexes, and bimodules.

Schema-versioned, deterministic field order; scalars are strings for exact
rationals and ints for prime fields.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bimod import Bimodule
from .derived import Complex
from .linalg import GF, QQ, FieldSpec, Matrix
from .rep import Rep
from .shapes import LineQuiver, Poset

SCHEMA = "meshrep/1"


def field_to_json(f: FieldSpec):
    return {"kind": "Q"} if f.is_rational else {"kind": "Fp", "p": f.p}


def field_from_json(d) -> FieldSpec:
    return QQ if d["kind"] == "Q" else GF(d["p"])


def _scalar_out(x, field: FieldSpec):
    return str(x) if field.is_rational else int(x)


def _scalar_in(x, field: FieldSpec):
    return Fraction(x) if field.is_rational else int(x)


def matrix_to_json(m: Matrix):
    return {"rows": m.nrows, "cols": m.ncols,
            "entries": [[_scalar_out(x, m.field) for x in row] for row in m.rows()]}


def matrix_from_json(d, field: FieldSpec) -> Matrix:
    if d["rows"] == 0 or d["cols"] == 0:
        return Matrix.zeros(field, d["rows"], d["cols"])
    return Matrix.from_rows(field, [[_scalar_in(x, field) for x in row] for row in d["entries"]])


def _el_out(e):
    if isinstance(e, tuple):
        return {"t": [_el_out(x) for x in e]}
    return e


def _el_in(e):
    if isinstance(e, dict) and "t" in e:
        return tuple(_el_in(x) for x in e["t"])
    return e


def shape_to_json(p: Poset):
    return {"name": p.name,
            "elements": [_el_out(e) for e in p.elements],
            "covers": [[_el_out(a), _el_out(b)] for (a, b) in p.covers]}


def shape_from_json(d) -> Poset:
    return Poset([_el_in(e) for e in d["elements"]],
                 [(_el_in(a), _el_in(b)) for a, b in d["covers"]],
                 name=d.get("name", "poset"))


def quiver_to_json(q: LineQuiver):
    return {"n": q.n, "orientation": q.orientation}


def quiver_from_json(d) -> LineQuiver:
    return LineQuiver(d["n"], d["orientation"])


def rep_to_json(r: Rep):
    return {
        "schema": SCHEMA,
        "type": "rep",
        "field": field_to_json(r.field),
        "shape": shape_to_json(r.shape),
        "dims": [[_el_out(e), r.dims[e]] for e in r.shape.elements],
        "maps": [[_el_out(a), _el_out(b), matrix_to_json(r.mats[(a, b)])]
                 for (a, b) in r.shape.covers],
    }


def rep_from_json(d) -> Rep:
    field = field_from_json(d["field"])
    shape = shape_from_json(d["shape"])
    dims = {_el_in(e): v for e, v in d["dims"]}
    mats = {(_el_in(a), _el_in(b)): matrix_from_json(m, field) for a, b, m in d["maps"]}
    return Rep(shape, field, dims, mats)


def complex_to_json(c: Complex):
    return {
        "schema": SCHEMA,
        "type": "complex",
        "field": field_to_json(c.field),
        "shape": shape_to_json(c.shape),
        "terms": [[d, rep_to_json(c.term(d))] for d in c.degrees()],
        "differentials": [[d, [[_el_out(e), matrix_to_json(c.diff(d)[e])]
                               for e in c.shape.elements]]
                          for d in sorted(c.diffs)],
    }


def complex_from_json(d) -> Complex:
    field = field_from_json(d["field"])
    shape = shape_from_json(d["shape"])
    terms = {deg: rep_from_json(r) for deg, r in d["terms"]}
    # reuse the shape object so covers match
    terms = {deg: Rep(shape, field, r.dims, r.mats, validate=False) for deg, r in terms.items()}
    diffs = {deg: {_el_in(e): matrix_from_json(m, field) for e, m in phis}
             for deg, phis in d["differentials"]}
    return Complex(shape, field, terms, diffs)


def bimodule_to_json(b: Bimodule):
    def side(s):
        if s is None:
            return {"kind": "point"}
        if isinstance(s, LineQuiver):
            return {"kind": "line", **quiver_to_json(s)}
        return {"kind": "poset", **shape_to_json(s)}

    return {
        "schema": SCHEMA,
        "type": "bimodule",
        "left": side(b.left),
        "right": side(b.right),
        "complex": complex_to_json(b.complex),
    }


def bimodule_from_json(d) -> Bimodule:
    def side(s):
        if s["kind"] == "point":
            return None
        if s["kind"] == "line":
            return quiver_from_json(s)
        return shape_from_json(s)

    return Bimodule(side(d["left"]), side(d["right"]), complex_from_json(d["complex"]))


def dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)
