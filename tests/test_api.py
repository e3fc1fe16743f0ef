"""Checks on the package source as a whole.

Every top-level function and class of the package, and every method of such
a class, is used somewhere.  A name counts as used when it appears in src/,
tests/, scripts/ or README.md outside its own definition and outside import
statements, which only bring a name into scope.  Functions
registered as click commands are reached through the CLI, and dunder methods
through Python itself; both are exempt.

No code writes into a Rep, Complex or ChainMap after its constructor, and
only homology_basis fills the homology bases kept on a Complex.

The package imports its submodules only when one of their names is used.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meshrep"


def _without_imports(text: str) -> str:
    """Python source with the lines of every import statement blanked, so
    that line numbers still match the source."""
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _corpus():
    files = [p for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    corpus = {p: _without_imports(p.read_text()) for p in files}
    corpus[ROOT / "README.md"] = (ROOT / "README.md").read_text()
    return corpus


def _is_click_command(node) -> bool:
    return any(re.search(r"\.(command|group)\b", ast.unparse(d)) for d in node.decorator_list)


def _definitions(tree):
    """(name, node) for each top-level function and class that is not a click
    command, and (Class.method, node) for each method of a top-level class
    that is not a dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if isinstance(meth, ast.FunctionDef) and not re.fullmatch(r"__\w+__", meth.name):
                    yield f"{node.name}.{meth.name}", meth


def test_no_unused_top_level_names():
    """A name is made of word characters only, so its whole-word matches are
    exactly the word tokens equal to it: the corpus is tokenized once."""
    corpus = _corpus()
    counts = Counter(word for t in corpus.values() for word in re.findall(r"\w+", t))
    unused = []
    for mod in sorted(PACKAGE.glob("*.py")):
        lines = corpus[mod].splitlines()
        for name, node in _definitions(ast.parse(mod.read_text())):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[start - 1:node.end_lineno])
            uses = counts[node.name] - re.findall(r"\w+", own).count(node.name)
            if uses == 0:
                unused.append(f"{mod.name}:{name}")
    assert unused == []


VALUE_FIELDS = {"dims", "mats", "terms", "diffs", "comps"}
CONSTRUCTORS = {("Rep", "__init__"), ("Complex", "__init__")}
MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}
# the homology bases kept on a Complex: made empty by its constructor and
# filled only by derived.homology_basis
MEMO, MEMO_WRITER = "_homology", ("homology_basis",)


def _writes_into_values(tree) -> list:
    """Lines outside Rep.__init__ and Complex.__init__ that assign into, or
    call a mutating method of, the dims/mats/terms/diffs/comps of a value;
    lines outside homology_basis that do so to the homology memo; and lines
    outside Complex.__init__ that rebind the memo."""
    def field_of(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return node.attr if isinstance(node, ast.Attribute) else None

    def writes(target):
        """(field, rebound) for each attribute the assignment target writes."""
        if isinstance(target, (ast.Tuple, ast.List)):
            return [w for t in target.elts for w in writes(t)]
        if isinstance(target, ast.Subscript):
            return [(field_of(target), False)]
        if isinstance(target, ast.Attribute):
            return [(target.attr, True)]
        return []

    def allowed(field, rebound, scope):
        if field == MEMO:
            return scope[-2:] == ("Complex", "__init__") if rebound else scope[-1:] == MEMO_WRITER
        return rebound or field not in VALUE_FIELDS or scope[-2:] in CONSTRUCTORS

    bad = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.Assign, ast.Delete)):
            found = [w for t in node.targets for w in writes(t)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            found = writes(node.target)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATORS:
            found = [(field_of(node.func.value), False)]
        else:
            found = []
        if any(not allowed(field, rebound, scope) for field, rebound in found):
            bad.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return bad


def test_values_are_written_only_by_their_constructors():
    """Zero reps and zero/identity matrices are shared, and homology bases are
    kept on a complex, which is safe only while no code writes into a Rep,
    Complex or ChainMap after building it, and only homology_basis fills the
    homology memo."""
    found = {mod.name: _writes_into_values(ast.parse(mod.read_text()))
             for mod in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    bad = ("def f(r, c, h):\n    r.dims[1] = 0\n    c.diffs[0][1] += h\n"
           "    h.comps[0].update({})\n    del r.mats[(1, 2)]\n"
           "    x[r.dims[1]], r.terms[0] = 0, 1\n    r.dims.pop(1)\n"
           "class Rep:\n    def __init__(self):\n        self.mats[0] = 1\n"
           "def g(c):\n    c._homology[0] = {}\n    c._homology.clear()\n"
           "def homology_basis(c, d):\n    c._homology[d] = {}\n    c._homology = {}\n"
           "class Complex:\n    def __init__(self):\n        self._homology = {}\n"
           "        self._homology[0] = {}\n")
    assert _writes_into_values(ast.parse(bad)) == [2, 3, 4, 5, 6, 7, 12, 13, 16, 20]


LAZY_CHECK = """
import sys
import meshrep
print(sorted(m for m in sys.modules if m.startswith("meshrep.")))
import meshrep.suites
print("meshrep.highertri" in sys.modules)
"""


def test_every_name_in_all_imports_lazily():
    """`import meshrep` loads no submodule and `import meshrep.suites` does
    not load highertri; `from meshrep import X` gives the object of X's
    module for every X in __all__, dir() lists each, and no other name
    resolves."""
    out = subprocess.run([sys.executable, "-c", LAZY_CHECK], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(ROOT / "src")}).stdout.split("\n")
    assert out[:2] == ["[]", "False"]
    import meshrep
    for name in meshrep.__all__:
        scope = {}
        exec(f"from meshrep import {name}", scope)
        home = sys.modules[f"meshrep.{meshrep._HOME[name]}"]
        assert scope[name] is vars(home)[name], name
        assert name in dir(meshrep)
    assert len(set(meshrep.__all__)) == len(meshrep.__all__) == 40
    for name in ("hom_dim", "functor_kernel", "Tracer"):
        assert not hasattr(meshrep, name), name


def _unused_imports(text: str) -> list:
    """(line, name) for each name an import statement binds that no ast.Name
    in the module reads; imports from __future__ and lines marked
    `noqa: F401` are exempt."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, name))
    return out


def test_no_unused_imports():
    found = {mod.name: _unused_imports(mod.read_text()) for mod in sorted(PACKAGE.glob("*.py"))}
    assert {name: got for name, got in found.items() if got} == {}
    bad = ("from __future__ import annotations\nimport os, numpy as np\n"
           "from x import (a, b as c)\nfrom y import d  # noqa: F401\n"
           "def f():\n    from z import e\n    return np.zeros(a)\n")
    assert _unused_imports(bad) == [(2, "os"), (3, "c"), (6, "e")]


def test_only_derived_calls_restrict_map():
    """Columns of a complex over a product and the actions between them are
    read by derived.slices, which alone calls restrict_map."""
    callers = []
    for mod in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(mod.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "restrict_map":
                    callers.append(mod.name)
    assert set(callers) == {"derived.py"}
