"""Every public function and method of the package is used by the package or its scripts,
and every defaulted parameter of one is passed by some caller there."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ensdiag"


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


def _trees():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def uncalled():
    """`file:line name` of each public definition referenced nowhere outside its own body."""
    trees = _trees()
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
    assert sorted(uncalled().values()) == []


def _parameters(node, method):
    """(positional parameter names, defaulted parameter names) of a function."""
    a = node.args
    positional = [p.arg for p in a.posonlyargs + a.args][1 if method else 0:]
    defaulted = positional[len(positional) - len(a.defaults):]
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional, defaulted


def _is_dataclass(node):
    return any(ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list)


def _fields(node):
    """(__init__ field names, defaulted ones) of a dataclass; init=False fields are not parameters."""
    positional, defaulted = [], []
    for n in node.body:
        if not (isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)):
            continue
        keywords = n.value.keywords if isinstance(n.value, ast.Call) else []
        if "ClassVar" in ast.unparse(n.annotation) or any(
                k.arg == "init" and getattr(k.value, "value", True) is False for k in keywords):
            continue
        positional.append(n.target.id)
        if n.value is not None:
            defaulted.append(n.target.id)
    return positional, defaulted


def _callables(tree):
    """(node, name, positional, defaulted) of each public function, public method of a
    public class, and public class constructor (dataclass fields or __init__)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            yield node, node.name, *_parameters(node, method=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            init = [n for n in methods if n.name == "__init__"]
            if _is_dataclass(node):
                yield node, node.name, *_fields(node)
            elif init:
                yield node, node.name, *_parameters(init[0], method=True)
            for n in methods:
                if not n.name.startswith("_"):
                    yield n, n.name, *_parameters(n, method=True)


def _calls(tree):
    """(called name, call) of every call in the tree; a name bound by `import ... as`
    is resolved to the name it imports."""
    aliases = {a.asname: a.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            yield aliases.get(node.func.id, node.func.id), node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr, node


def _passes(call, positional, parameter):
    """Whether a call can set the parameter: by keyword, by position, or through * or **."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return parameter in positional
    return parameter in positional[:len(call.args)]


def unset_defaults(definitions, callers):
    """`file:line name(parameter)` of each defaulted parameter of a public callable in
    `definitions` that no call in `definitions` or `callers` passes. Both map a file
    name to its parsed tree."""
    calls = {}
    for tree in [*definitions.values(), *callers.values()]:
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    return [f"{Path(path).name}:{node.lineno} {name}({parameter})"
            for path, tree in definitions.items()
            for node, name, positional, defaulted in _callables(tree)
            for parameter in defaulted
            if not any(_passes(call, positional, parameter) for call in calls.get(name, []))]


def test_every_default_is_passed_by_a_caller():
    # A defaulted parameter that only tests set is a test-only knob: make it a constant.
    trees = _trees()
    package = {path: tree for path, tree in trees.items() if path.parent == PACKAGE}
    others = {path: tree for path, tree in trees.items() if path.parent != PACKAGE}
    assert unset_defaults(package, others) == []


SYNTHETIC_MODULE = """
from dataclasses import dataclass


def fit(x, scale=1.0):
    return x * scale


@dataclass
class Config:
    size: int
    depth: int = 2
"""


@pytest.mark.parametrize("caller, expected", [
    ("from mod import fit as f, Config as C\nf(1.0)\nC(3)\n",
     ["mod.py:5 fit(scale)", "mod.py:10 Config(depth)"]),
    ("from mod import fit as f, Config as C\nf(1.0, 2.0)\nC(3, depth=4)\n", []),
    ("import mod as m\nm.fit(1.0, scale=2.0)\nm.Config(*(3, 4))\n", []),
])
def test_unset_default_guard_on_synthetic_source(caller, expected):
    definitions = {"mod.py": ast.parse(SYNTHETIC_MODULE)}
    assert unset_defaults(definitions, {"run.py": ast.parse(caller)}) == expected



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


def test_member_values_are_read_only_in_store():
    # A member's values reach an analysis only through store.member_blocks: no
    # other module reads a prediction file or calls a member's read.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "store.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {name}" for name, line in _references(tree)
                  if name in ("read", "_read", "fromfile")]
    assert found == []


def test_only_load_store_builds_a_store():
    # A PredictionStore is a frozen record that store.load_store alone fills.
    found = [f"{path.name}:{call.lineno}" for path, tree in _trees().items() if path.name != "store.py"
             for name, call in _calls(tree) if name == "PredictionStore"]
    assert found == []


# Fragments of the pair rule's messages, past and present: store.check_pair words them all.
PAIR_RULE_WORDS = ("IND:OOD, got", "must name two datasets", "unknown dataset", "on both sides", "[ind, ood]")


# Fragments of the ensemble rule's messages: PredictionStore.check_ensemble words them all.
ENSEMBLE_RULE_WORDS = ("has no members", "references unknown model", "not predicted on both", "repeats model")


def _raised_outside_store(words):
    """Each string in a raise statement outside store.py that holds one of `words`."""
    found = []
    for path, tree in _trees().items():
        if path.name == "store.py":
            continue
        found += [f"{path.name}:{node.lineno} {text!r}" for raise_ in ast.walk(tree) if isinstance(raise_, ast.Raise)
                  for node in ast.walk(raise_) if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  for text in [node.value] if any(word in text for word in words)]
    return found


def test_only_store_raises_a_pair_error():
    # A manifest's pairs and --pair are checked by store.check_pair alone.
    assert _raised_outside_store(PAIR_RULE_WORDS) == []


def test_only_store_raises_an_ensemble_error():
    # Every member spec and ensemble is checked by PredictionStore.check_ensemble alone.
    assert _raised_outside_store(ENSEMBLE_RULE_WORDS) == []


def draws_outside_stream(trees):
    """`file:line` of each reference to default_rng, by name, attribute or import, that
    is not inside the package root's `stream`."""
    found = []
    for path, tree in trees.items():
        for top in tree.body:
            if Path(path).name == "__init__.py" and isinstance(top, ast.FunctionDef) and top.name == "stream":
                continue
            imported = [(alias.name, node.lineno) for node in ast.walk(top)
                        if isinstance(node, ast.ImportFrom) for alias in node.names]
            found += [f"{Path(path).name}:{line}" for name, line in [*_references(top), *imported]
                      if name == "default_rng"]
    return found


def test_only_stream_calls_default_rng():
    # Every random draw of the package comes from ensdiag.stream, whose key table
    # keeps any two uses of one seed from sharing a stream.
    assert draws_outside_stream({path: tree for path, tree in _trees().items() if path.parent == PACKAGE}) == []


def test_stream_guard_on_synthetic_source():
    source = ("import numpy as np\nfrom numpy.random import default_rng as rng\n\n\n"
              "def stream(seed):\n    return np.random.default_rng(seed)\n\n\n"
              "def draw(seed):\n    return rng([seed, 1]).random()\n\n\n"
              "def permute(seed, n):\n    return np.random.default_rng([seed, 2]).permutation(n)\n")
    assert draws_outside_stream({"__init__.py": ast.parse(source)}) == ["__init__.py:2", "__init__.py:14"]
    assert draws_outside_stream({"mod.py": ast.parse(source)}) == ["mod.py:2", "mod.py:6", "mod.py:14"]


def test_cli_takes_residual_maxima_from_the_records():
    # decompose's records say which points each identity covers; cli.py only reports
    # their max_abs_residual, so it takes no absolute value of a residual itself.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert [f"cli.py:{call.lineno}" for name, call in _calls(tree) if name in ("abs", "absolute", "fabs")] == []


# The only places that take matrix products by BLAS: (module, function) and why.
# OpenBLAS splits a long reduction across threads, so a sum it takes can round
# by the thread count; every other reduction over points or entries is an
# einsum or a ufunc reduce.
BLAS_PRODUCTS = {
    ("conditional.py", "pivoted_cholesky"): "gemv: each output entry sums at most 64 factor rows",
    ("conditional.py", "_krr_curve"): "kernel ridge's normal equations, on a subsample; kept until ridge goes",
    ("gp.py", "generate_dataset"): "the fixed toy problem's N_TRAIN points",
    ("gp.py", "gp_predict"): "the fixed toy problem's N_TRAIN points",
    ("simulate.py", "_generate"): "teacher logits: each entry sums over a latent dimension of 2",
}
BLAS_CALLS = ("dot", "vdot", "inner", "matmul")


def blas_products(trees):
    """(module, enclosing top-level function or method, line) of each `@`, `@=`, and
    call of dot, vdot, inner or matmul in the parsed trees."""
    found = []
    for path, tree in trees.items():
        for top in tree.body:
            scopes = [n for n in top.body if isinstance(n, ast.FunctionDef)] if isinstance(top, ast.ClassDef) else [top]
            for scope in scopes:
                for node in ast.walk(scope):
                    op = getattr(node, "op", None)
                    call = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    if isinstance(op, ast.MatMult) or call and node.func.attr in BLAS_CALLS:
                        found.append((Path(path).name, getattr(scope, "name", "<module>"), node.lineno))
    return found


def test_blas_products_stay_in_the_allowance():
    trees = {path: tree for path, tree in _trees().items() if path.parent == PACKAGE}
    found = blas_products(trees)
    assert [f"{module}:{line} {name}" for module, name, line in found if (module, name) not in BLAS_PRODUCTS] == []
    # An entry whose products are gone is stale.
    assert sorted({(module, name) for module, name, _ in found}) == sorted(BLAS_PRODUCTS)


def test_blas_guard_on_synthetic_source():
    source = "import numpy as np\n\ndef f(a, b):\n    a @= b\n    return np.dot(a, b) + a.vdot(b) + a @ b\n"
    assert blas_products({"mod.py": ast.parse(source)}) == [("mod.py", "f", 4), ("mod.py", "f", 5), ("mod.py", "f", 5),
                                                            ("mod.py", "f", 5)]
