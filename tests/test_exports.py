import ast
from pathlib import Path

import splitio

PACKAGE = Path(splitio.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# public functions whose only callers are tests today, each waiting on a
# ROADMAP item that gives it a caller or retires it with its tests
NAMED_ONLY_IN_TESTS = {
    "bench.py app_cost_sweep",  # item 7: could feed a factors-report or load section
    "factors.py diff_configs",  # item 7: the modeled column may show which factors differ
    "factors.py standardize",  # item 7: standardizes the modeled column
    "factors.py predict_latency",  # item 7: printed beside the modeled column
}


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports but never reads. An import line marked
    `# noqa: F401` counts as read."""
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
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).resolve().parent
    modules = sorted(PACKAGE.glob("*.py")) + sorted(root.glob("*.py"))
    assert [hit for path in modules for hit in _unread_imports(path)] == []


def _names(path: Path) -> set[str]:
    """Every identifier a module names: read, attribute, import, or a string
    that is an identifier (perfbench looks its targets up by name). A
    definition's own name is not a read of it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    named = set().union(*map(_names, modules + sorted(PERFBENCH.glob("*.py"))))
    unnamed = [
        f"{path.name} {node.name}"
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named
    ]
    # exactly the allowlist: a listed name that gains a caller or goes leaves it too
    assert sorted(unnamed) == sorted(NAMED_ONLY_IN_TESTS)


def test_readme_library_example_runs(capsys):
    """README's "Library use" block runs as printed and delivers what it sent."""
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    sent = b"\x00" * 8 + b"hello world"
    assert namespace["system"].delivered_b == [sent]
    assert repr(sent) in capsys.readouterr().out
