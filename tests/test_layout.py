"""Every top-level definition of ``micpq`` is reached from the command
line, save the single-item wrappers kept for tests and the package's lazy
export hooks: a reference path that only tests call lives in
``tests/oracles.py``, not in the package."""
import ast
from pathlib import Path

import micpq

SRC = Path(micpq.__file__).parent
# single-item wrappers of the batched paths; build_lut, the checked entry
# to the table that a search builds from its own refined query unchecked;
# and the PEP 562 export hooks
ALLOWED = {
    "forward", "QuantCode", "quantize_document", "reconstruct", "pack_codes", "unpack_codes",
    "pack_codes_batch", "unpack_codes_batch", "adc_distance", "hamming_distance", "build_lut",
    "__getattr__", "__dir__",
}


class _Loads(ast.NodeVisitor):
    """The names a definition loads, and the ``module.name`` attributes it
    reads, skipping annotations (never evaluated, by ``from __future__
    import annotations``)."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attrs: set[tuple[str, str]] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            self.attrs.add((node.value.id, node.attr))
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        pass

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        for child in (*node.decorator_list, *args.defaults, *filter(None, args.kw_defaults),
                      *node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)


def _graph():
    """Top-level definitions (module, name) -> whether each is a function
    or class, and the edges of every top-level statement's loads."""
    defs, edges = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        modules, imported = {}, {}  # local name -> micpq module, or (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        imported[local] = (node.module, alias.name)
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own[node.name] = [node]
                defs[(module, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            own.setdefault(name.id, []).append(node)
        for name, nodes in own.items():
            loads = _Loads()
            for node in nodes:
                loads.visit(node)
            edges[(module, name)] = (
                {(module, n) for n in loads.names if n in own}
                | {imported[n] for n in loads.names if n in imported}
                | {(modules[m], attr) for m, attr in loads.attrs if m in modules}
            )
    return defs, edges


def test_every_definition_is_reached_from_main_or_allowed():
    defs, edges = _graph()
    reached, todo = set(), [("cli", "main")]
    while todo:
        node = todo.pop()
        if node not in reached:
            reached.add(node)
            todo.extend(edges.get(node, ()))
    assert ALLOWED <= {name for _, name in defs}
    unreached = sorted(f"{m}.{n}" for m, n in defs if (m, n) not in reached and n not in ALLOWED)
    assert not unreached, f"not reached from cli.main: {unreached}"
