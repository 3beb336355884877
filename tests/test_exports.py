import ast
from pathlib import Path
from typing import Optional

import splitio

PACKAGE = Path(splitio.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# public functions and class members whose only callers are tests today,
# each kept for a stated reason
NAMED_ONLY_IN_TESTS = {
    # ROADMAP item 7 gives these a caller or retires them with their tests
    "bench.py app_cost_sweep",  # could feed a factors-report or load section
    "factors.py diff_configs",  # the modeled column may show which factors differ
    "factors.py standardize",  # standardizes the modeled column
    "factors.py predict_latency",  # printed beside the modeled column
    # the crash model and scrubbing behind criterion 04(d) and the threat
    # model's "Scrubbing": a port's teardown and the machine's
    "mem.py MemorySystem.zero_and_release",
    "pools.py PortContext.destroy",
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


def test_every_module_parses_under_the_oldest_supported_grammar():
    """pyproject.toml says requires-python >= 3.10, so no file may use
    syntax newer than 3.10's."""
    tests = Path(__file__).resolve().parent
    paths = [p for root in (PACKAGE, tests, PERFBENCH) for p in sorted(root.rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _unread_private_globals(path: Path) -> list[str]:
    """Private names a module assigns at module level but never reads, such
    as an alias left behind when its last use went."""
    tree = ast.parse(path.read_text())
    assigned: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for name in (n for target in targets for n in ast.walk(target)):
            if isinstance(name, ast.Name) and name.id[:1] == "_" and name.id[:2] != "__":
                assigned.setdefault(name.id, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in assigned.items() if name not in read]


def test_no_module_assigns_a_private_name_it_never_reads():
    modules = sorted(PACKAGE.glob("*.py"))
    assert [hit for path in modules for hit in _unread_private_globals(path)] == []


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


def _public_definitions(path: Path):
    """(label, name) of each public function and class of a module, and of
    each public method and property of its public classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.name} {node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield f"{path.name} {node.name}.{fn.name}", fn.name


def test_every_public_definition_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    named = set().union(*map(_names, modules + sorted(PERFBENCH.glob("*.py"))))
    unnamed = [
        label for path in modules for label, name in _public_definitions(path) if name not in named
    ]
    # exactly the allowlist: a listed name that gains a caller or goes leaves it too
    assert sorted(unnamed) == sorted(NAMED_ONLY_IN_TESTS)


def _exception_classes(paths: list[Path]) -> dict[str, str]:
    """label -> name of each class the modules define that derives, by
    base name and through any chain of them, from Exception."""
    classes = [
        (
            f"{path.name} {node.name}",
            node.name,
            {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases},
        )
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    found: dict[str, str] = {}
    known = {"Exception", "BaseException"}
    while True:
        new = {label: name for label, name, bases in classes if label not in found and bases & known}
        if not new:
            return found
        found.update(new)
        known.update(new.values())


def _caught(path: Path) -> set[str]:
    """Every class name an except clause of the module names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for n in ast.walk(node.type):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    names.add(getattr(n, "id", None) or n.attr)
    return names


def test_every_exception_class_has_a_catcher():
    """An exception class exists for a caller that reacts to it: each one
    under src/ is named by an except clause in src/ or perfbench/. A refusal
    no caller tells apart raises a class its callers already catch."""
    modules = sorted(PACKAGE.glob("*.py"))
    caught = set().union(*map(_caught, modules + sorted(PERFBENCH.glob("*.py"))))
    uncaught = [label for label, name in _exception_classes(modules).items() if name not in caught]
    assert uncaught == []


def test_errors_module_defines_exactly_the_caught_classes():
    assert sorted(_exception_classes(sorted(PACKAGE.glob("*.py")))) == [
        "errors.py AuthFail",
        "errors.py ConfigInvalid",
        "errors.py DeviceAccessDenied",
        "errors.py OutOfBounds",
        "errors.py PoolExhausted",
        "errors.py RingFull",
        "errors.py SplitioError",
    ]


# defaulted parameters that no call in src/ or perfbench/ passes, each kept
# for a stated reason
UNPASSED_PARAMETERS = {
    "cli.py main argv",  # the console entry point: main() reads sys.argv
    # the crash model behind criterion 04(d) and the threat model's "Scrubbing"
    "pools.py PortContext.destroy graceful",
    # item 7 gives these functions a caller or retires them
    "factors.py predict_latency costs",
    "factors.py predict_latency base",
    "bench.py app_cost_sweep rate_pps",
    # perfbench/workloads.py reads these two fields of the configs it builds
    "bench.py CostProfile loss_rate",
    "bench.py BenchConfig ring_capacity",
    # DEFAULT_MBUF_SIZE is the one buffer size the model runs; the tests
    # vary it to check the pool layout and its refusals
    "pools.py PoolConfig mbuf_size",
}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, Optional[int]]]:
    """(name, position) of each parameter with a default; position counts
    from the first argument a caller passes and is None for keyword-only."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
        positional = positional[1:]  # self or cls
    first = len(positional) - len(args.defaults)
    out = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Decorated @dataclass or @dataclass(...)."""
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in cls.decorator_list)


def _defaulted_fields(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, position) of each field of a dataclass that has a default;
    position counts the fields before it, as its constructor takes them."""
    fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
    return [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None]


def _public_defaulted(path: Path):
    """(label, callee name, parameter, position, is a field) for each
    defaulted parameter of a public function, or of a public class's
    constructor (called by the class name) or public method, and for each
    defaulted field of a public dataclass (its constructor's parameter)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, pos in _defaulted(node, method=False):
                yield f"{path.name} {node.name} {name}", node.name, name, pos, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                for name, pos in _defaulted_fields(node):
                    yield f"{path.name} {node.name} {name}", node.name, name, pos, True
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__":
                    label, callee = node.name, node.name
                elif not fn.name.startswith("_"):
                    label, callee = f"{node.name}.{fn.name}", fn.name
                else:
                    continue
                for name, pos in _defaulted(fn, method=True):
                    yield f"{path.name} {label} {name}", callee, name, pos, False


def _passes(call: ast.Call, name: str, pos: Optional[int]) -> bool:
    """Whether call passes the parameter, by keyword or by position; a
    *args or **kwargs argument may pass any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def _calls(tree: ast.Module):
    """(callee name, call) for every call in a module. A super().__init__
    call in a class also calls its first base's constructor, by that name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "id", None) or getattr(func, "attr", None), node
        elif isinstance(node, ast.ClassDef) and node.bases:
            base = getattr(node.bases[0], "id", None) or getattr(node.bases[0], "attr", None)
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "attr", None) == "__init__"
                    and isinstance(call.func.value, ast.Call)
                    and getattr(call.func.value.func, "id", None) == "super"
                ):
                    yield base, call


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """An option is something a caller sets: each defaulted parameter of a
    public function, method or constructor, and each defaulted field of a
    public dataclass, is passed by some call, in src/ or perfbench/, to a
    callee of that name. A dataclass field also counts as passed by a
    dataclasses.replace(..., field=) call."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for callee, call in _calls(ast.parse(path.read_text())):
            calls.setdefault(callee, []).append(call)
    replaced = {k.arg for call in calls.get("replace", []) for k in call.keywords}
    unpassed = [
        label
        for path in sorted(PACKAGE.glob("*.py"))
        for label, callee, name, pos, field in _public_defaulted(path)
        if not any(_passes(call, name, pos) for call in calls.get(callee, []))
        and not (field and name in replaced)
    ]
    # exactly the allowlist: a listed parameter that gains a caller or goes leaves it too
    assert sorted(unpassed) == sorted(UNPASSED_PARAMETERS)


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
