"""A ratchet on each module's public names: a new one has to edit the counts."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "neurosudoku")


def public_names(path):
    """Top-level def, class and assigned names without a leading underscore."""
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return sorted(name for name in names if not name.startswith("_"))


def test_public_names_per_module_are_pinned():
    names = {f[:-3]: public_names(os.path.join(PACKAGE, f))
             for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}
    counts = {module: len(found) for module, found in names.items()}
    assert counts == {"__init__": 0, "charts": 10, "cli": 12, "engine": 17, "grids": 18,
                      "losses": 15, "network": 24, "training": 23}, names
