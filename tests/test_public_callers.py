"""No public function without a caller: every public top-level function in
``src/convdse`` is referenced somewhere else in the package (a call, an
attribute, or an import such as the ``__init__`` re-exports), or is listed
below with the reason it stays."""

import ast
from pathlib import Path

import convdse

SRC = Path(convdse.__file__).parent

#: function name -> why it stays without a caller in the package
ALLOWED_WITHOUT_CALLER = {
    "activation_traffic_words": "bench/tracing.py traces it by name",
    "quantization_mse": "kept for the per-tensor codec stats (ROADMAP item 1)",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _references(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _public_functions(trees) -> dict[str, str]:
    return {node.name: module for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def test_every_public_function_has_a_caller_or_a_reason():
    trees = _trees()
    references = _references(trees)
    lacking = sorted(f"{module}: {name}" for name, module in _public_functions(trees).items()
                     if name not in references and name not in ALLOWED_WITHOUT_CALLER)
    assert lacking == []


def test_the_allowlist_names_only_public_functions_without_a_caller():
    trees = _trees()
    public, references = _public_functions(trees), _references(trees)
    assert [name for name in ALLOWED_WITHOUT_CALLER
            if name not in public or name in references] == []
