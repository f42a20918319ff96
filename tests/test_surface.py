"""Every public function and method of the package is used by the package or its scripts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ensdiag"

# Public names that nothing in src/ensdiag or scripts/ calls, each with its reason.
ALLOWED = {
    "simulate_store": "the float64 in-memory twin of `simulate`; the test fixtures are built from it",
}


def _public_definitions(tree):
    """Public top-level functions and the public methods of public top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            candidates = [node]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            candidates = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            continue
        yield from (n for n in candidates if not n.name.startswith("_"))


def _references(tree):
    """(name, line) of every name and every attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def uncalled():
    """`file:line name` of each public definition referenced nowhere outside its own body."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    references = [(path, name, line) for path, tree in trees.items() for name, line in _references(tree)]
    found = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == path and line in own)
                       for where, name, line in references):
                found[node.name] = f"{path.name}:{node.lineno} {node.name}"
    return found


def test_every_public_function_has_a_caller():
    assert sorted(where for name, where in uncalled().items() if name not in ALLOWED) == []


def test_allowlist_is_current():
    assert set(ALLOWED) <= set(uncalled())



def test_block_geometry_stays_in_store():
    # Reductions over members walk store.member_blocks; only store.py sizes the row blocks.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "store.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [(alias.name, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names]
        found += [f"{path.name}:{line} {name}" for name, line in [*_references(tree), *imported]
                  if name in ("row_blocks", "block_rows")]
    assert found == []
