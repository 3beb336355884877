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
