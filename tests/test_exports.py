"""The package's export list and its modules' imports."""

import ast
from pathlib import Path

import tvdist

PACKAGE = Path(tvdist.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree):
    """(module, name, bound name) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield ("." * node.level + (node.module or "")), alias.name, alias.asname or alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.name, alias.asname or alias.name.partition(".")[0]


def _defined(tree):
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_export_resolves_once():
    names = tvdist.__all__
    assert len(set(names)) == len(names), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(tvdist, name)]
    assert missing == [], f"__all__ names that the package does not define: {missing}"


def test_every_imported_name_is_used():
    unused = []
    for stem, tree in MODULES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if stem == "__init__":
            used.update(tvdist.__all__)
        unused += [f"{stem}: {bound}" for _, _, bound in _imports(tree) if bound not in used]
    assert unused == []


def test_private_names_come_from_the_module_that_defines_them():
    borrowed = []
    for stem, tree in MODULES.items():
        for module, name, _ in _imports(tree):
            if module.startswith(".") and name.startswith("_"):
                if name not in _defined(MODULES[module.lstrip(".")]):
                    borrowed.append(f"{stem}: {name} from {module}")
    assert borrowed == []


def _main_block(tree):
    """Every node under the module's top-level `if __name__ == "__main__":`."""
    blocks = [node for node in tree.body if isinstance(node, ast.If)]
    return [n for b in blocks if ast.unparse(b.test) == "__name__ == '__main__'" for n in ast.walk(b)]


def test_every_raise_names_a_package_error():
    # each failure must end as a typed `error: <kind>` line; only the script
    # entry point hands its exit code to SystemExit
    errors = {node.name for node in MODULES["errors"].body if isinstance(node, ast.ClassDef)}
    foreign = []
    for stem, tree in MODULES.items():
        entry = _main_block(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in errors:
                continue
            if stem == "cli" and node in entry and ast.unparse(node.exc) == "SystemExit(main())":
                continue
            foreign.append(f"{stem}:{node.lineno}: raise {ast.unparse(node.exc)}")
    assert foreign == []


def test_every_export_is_used_by_the_package():
    # no public name that only the tests call: each one is read somewhere
    # in the package besides the export list itself
    used = set()
    for stem, tree in MODULES.items():
        if stem != "__init__":
            used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    assert sorted(set(tvdist.__all__) - used) == []


def test_every_private_name_is_read_by_the_package():
    # a helper that only the tests call is dead code kept alive by its tests
    read = set()
    for tree in MODULES.values():
        read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    unread = [
        f"{stem}: {name}"
        for stem, tree in MODULES.items()
        for name in sorted(_defined(tree))
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]
    assert unread == []


def _dataclass_fields(tree):
    """(class, field) for every annotated field of a top-level dataclass."""
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in classes:
        if any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_private_dataclass_field_is_read_by_the_package():
    # a field that no caller outside the package can see must be read by
    # the package, or it is stored for nothing
    read = set()
    for tree in MODULES.values():
        attributes = (n for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        read.update(n.attr for n in attributes if isinstance(n.ctx, ast.Load))
    unread = [
        f"{stem}: {cls}.{field}"
        for stem, tree in MODULES.items()
        for cls, field in _dataclass_fields(tree)
        if cls not in tvdist.__all__ and field not in read
    ]
    assert unread == []
