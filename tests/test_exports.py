import ast
from pathlib import Path

import splitio


def test_all_matches_package_imports():
    """Every name in __all__ resolves on the package, and every public name
    __init__.py imports is listed in __all__."""
    missing = [name for name in splitio.__all__ if not hasattr(splitio, name)]
    assert missing == []
    tree = ast.parse(Path(splitio.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = sorted(n for n in imported if not n.startswith("_"))
    assert [n for n in public if n not in splitio.__all__] == []


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports but never reads. An import line marked
    `# noqa: F401` and a name listed in __all__ count as read."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).resolve().parent
    modules = sorted(Path(splitio.__file__).parent.glob("*.py")) + sorted(root.glob("*.py"))
    assert [hit for path in modules for hit in _unread_imports(path)] == []
