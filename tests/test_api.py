"""Every top-level function and class of the package is used somewhere.

A name counts as used when it appears in src/, tests/, scripts/ or README.md
outside its own definition.  Functions registered as click commands are
reached through the CLI and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "meshrep"


def _corpus():
    files = [p for d in ("src", "tests", "scripts") for p in sorted((ROOT / d).rglob("*.py"))]
    return {p: p.read_text() for p in files + [ROOT / "README.md"]}


def _is_click_command(node) -> bool:
    return any(re.search(r"\.(command|group)\b", ast.unparse(d)) for d in node.decorator_list)


def test_no_unused_top_level_names():
    corpus = _corpus()
    unused = []
    for mod in sorted(PACKAGE.glob("*.py")):
        text = corpus[mod]
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _is_click_command(node):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(lines[start - 1:node.end_lineno])
            uses = sum(len(word.findall(t)) for t in corpus.values()) - len(word.findall(own))
            if uses == 0:
                unused.append(f"{mod.name}:{node.name}")
    assert unused == []
