"""Guards on the package surface: exports, the README example, and that
``src/`` holds no code only the tests reach."""

import ast
import re
from pathlib import Path

import sramdpe

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sramdpe"


def test_every_exported_name_imports():
    namespace = {}
    exec("from sramdpe import *", namespace)    # raises on a missing name
    assert set(sramdpe.__all__) <= set(namespace)


def test_readme_library_snippet_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def _defined_names(statement):
    """Names a top-level statement defines: a function, a class, or the
    plain-name targets of an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target,
                                                           ast.Name):
        return [statement.target.id]
    return []


def _referenced_names(statement):
    """Identifiers a statement reads, as names or as attributes."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_definition_is_used_in_src():
    """Each top-level function, class and constant of a module is read by
    some other top-level statement of the package; an ``__init__`` export
    does not count. Code that only tests reach belongs in the tests."""
    statements = []          # (module, statement) over every module
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text())
            statements += [(path.name, s) for s in tree.body]
    unused = []
    for module, statement in statements:
        for name in _defined_names(statement):
            if name.startswith("__"):
                continue
            if not any(name in _referenced_names(other)
                       for _, other in statements if other is not statement):
                unused.append(f"{module}:{name}")
    assert not unused, f"defined in src/ but used only outside it: {unused}"
