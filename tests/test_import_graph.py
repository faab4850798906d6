"""The geckit package's import graph, read from the source with ast."""

import ast
from pathlib import Path

import geckit

PACKAGE = Path(geckit.__file__).resolve().parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(node: ast.AST, function: str | None = None):
    """(enclosing function or None, statement) for every import under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield function, child
        else:
            yield from _imports(child, child.name if isinstance(child, FUNCTIONS) else function)


def _targets(node: ast.Import | ast.ImportFrom, module: str, is_package: bool) -> list[str]:
    """Every name the statement may load as a geckit module."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parts = module.split(".")
        parts = parts[: len(parts) - node.level + is_package]
        base = ".".join(parts + ([node.module] if node.module else []))
    # "from . import x" may name a submodule rather than an attribute.
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _files() -> dict[str, Path]:
    return {_module_name(path): path for path in PACKAGE.rglob("*.py")}


def _graph() -> tuple[dict[str, set[str]], set[tuple[str, str, str]]]:
    """Module-level edges, and (module, function, target) of imports inside functions."""
    files = _files()
    edges: dict[str, set[str]] = {name: set() for name in files}
    local: set[tuple[str, str, str]] = set()
    for module, path in files.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, node in _imports(tree):
            for target in _targets(node, module, path.name == "__init__.py"):
                if target not in files:
                    continue
                if function is None:
                    edges[module].add(target)
                else:
                    local.add((module, function, target))
    return edges, local


def _cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path, or None."""
    done: set[str] = set()
    stack: list[str] = []

    def visit(module: str) -> list[str] | None:
        stack.append(module)
        for target in sorted(edges[module]):
            if target in stack:
                return stack[stack.index(target) :] + [target]
            if target not in done and (found := visit(target)):
                return found
        stack.pop()
        done.add(module)
        return None

    for module in sorted(edges):
        if module not in done and (found := visit(module)):
            return found
    return None


def test_module_level_imports_have_no_cycle():
    """Module-level and function-level edges together form no cycle."""
    edges, local = _graph()
    both = {module: set(targets) for module, targets in edges.items()}
    for module, _function, target in local:
        both[module].add(target)
    assert {"geckit.evalmetrics", "geckit.experiment", "geckit.gec"} <= both["geckit.cli"]
    assert {"geckit.evalmetrics", "geckit.gec"} <= edges["geckit.experiment"]
    assert "geckit.evalmetrics" in edges["geckit.gec.training"]
    # Scoring sits below the corrector: gec.training imports it for dev F0.5.
    assert not any(t.startswith("geckit.gec") for t in both["geckit.evalmetrics"])
    assert _cycle(both) is None


def test_function_level_geckit_imports_occur_only_in_cli():
    """Only the CLI defers imports: its runners and readers load the stages they run."""
    edges, local = _graph()
    assert {module for module, _function, _target in local} == {"geckit.cli"}
    stages = {"judge", "gec", "experiment", "align", "colacorpus", "evalmetrics", "synth"}
    assert not {f"geckit.{name}" for name in stages} & edges["geckit.cli"]


def test_the_corrector_is_reached_only_through_its_package():
    """Outside geckit.gec, no module imports a geckit.gec submodule directly."""
    edges, local = _graph()
    pairs = {(module, target) for module, targets in edges.items() for target in targets}
    pairs |= {(module, target) for module, _function, target in local}
    direct = sorted(
        f"{module} -> {target}"
        for module, target in pairs
        if target.startswith("geckit.gec.") and not f"{module}.".startswith("geckit.gec.")
    )
    assert direct == []


def test_no_geckit_module_imports_a_private_name_of_another():
    files = _files()
    private = []
    for module, path in files.items():
        for _, node in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _targets(node, module, path.name == "__init__.py")[0]
            if source in files and source != module:
                private += [f"{module}: {source}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_cycle_finder():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
