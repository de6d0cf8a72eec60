"""No public function without a caller: every public top-level function in
``src/convdse`` is referenced somewhere else in the package (a call, an
attribute, or an import such as the ``__init__`` re-exports), or is listed
below with the reason it stays. No parameter without a caller: every
defaulted parameter of a function or method in the package is set, by
position or keyword, by some call in the package, or is listed below with
the reason it stays. Calls are matched by the function's name alone."""

import ast
from pathlib import Path
from typing import Optional

import convdse

SRC = Path(convdse.__file__).parent

#: function name -> why it stays without a caller in the package
ALLOWED_WITHOUT_CALLER = {
    "activation_traffic_words": "bench/tracing.py traces it by name",
    "quantization_mse": "kept for the per-tensor codec stats (ROADMAP item 1)",
}

_BUILDER = "GraphBuilder's layer methods all take a node name and their layer's flags"
_ORACLE = ("every oracle takes a seed and a size or tolerance; run_all_checks uses the "
           "defaults, tests/test_acceptance.py sets some")

#: 'function(parameter)' -> why it stays without a call that sets it
ALLOWED_UNSET = {
    "main(argv)": "the console script passes none; tests pass their argv",
    "peak_activation_bytes(word_bytes)": "public cost API",
    "input(name)": _BUILDER,
    "fc(bias)": _BUILDER,
    "avgpool(ceil_mode)": _BUILDER,
    "avgpool(name)": _BUILDER,
    "shuffle(name)": _BUILDER,
    **{f"check_{check}({param})": _ORACLE for check, params in {
        "mac_counts": ("seed", "trials"), "run_shapes": ("seed", "trials"),
        "grouped_vs_blockdiag": ("seed", "tol"), "shuffle": ("seed", "trials"),
        "fc_lowering": ("seed", "tol"), "scalar_oracle": ("seed", "tol"),
        "codec_roundtrip": ("seed", "trials"), "huffman_bound": ("seed", "trials"),
        "huffman_decode": ("seed", "trials")}.items() for param in params},
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


def _calls(trees) -> dict[str, list[Optional[tuple[int, set[str]]]]]:
    """Callee name -> (positional count, keyword names) of each call, or
    None for a call with ``*args`` or ``**kwargs``, which may set any."""
    calls: dict[str, list[Optional[tuple[int, set[str]]]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                star = (any(isinstance(arg, ast.Starred) for arg in node.args)
                        or any(kw.arg is None for kw in node.keywords))
                calls.setdefault(name, []).append(
                    None if star else (len(node.args), {kw.arg for kw in node.keywords}))
    return calls


def _unset_parameters(trees) -> list[str]:
    """'module: function(parameter)' of every defaulted parameter that no
    call sets. A method's calls skip its ``self`` or ``cls``; ``__init__``
    is called by its class's name."""
    functions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((module, node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                functions += [(module, node.name if f.name == "__init__" else f.name, f, 1)
                              for f in node.body if isinstance(f, ast.FunctionDef)]
    calls = _calls(trees)
    unset = []
    for module, name, f, skipped in functions:
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        defaulted = [(arg, i - skipped) for i, arg in enumerate(positional) if i >= first]
        defaulted += [(arg, None) for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults)
                      if default is not None]
        unset += [f"{module}: {f.name}({arg.arg})" for arg, index in defaulted
                  if not any(call is None or arg.arg in call[1]
                             or index is not None and call[0] > index
                             for call in calls.get(name, ()))]
    return unset


def test_every_defaulted_parameter_is_set_by_a_call_or_has_a_reason():
    lacking = [entry for entry in _unset_parameters(_trees())
               if entry.partition(": ")[2] not in ALLOWED_UNSET]
    assert lacking == []


def test_the_allowlist_names_only_parameters_no_call_sets():
    unset = {entry.partition(": ")[2] for entry in _unset_parameters(_trees())}
    assert [entry for entry in ALLOWED_UNSET if entry not in unset] == []
