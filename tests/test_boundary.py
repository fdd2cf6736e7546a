"""What ships, and only what ships.

No module under ``src/repro`` imports the study code under
``benchmarks/`` (the comparison baselines and protocols), every
module under ``src/repro`` is reached from a shipped entry point: the
``vegvisir`` CLI, the ``python -m`` mains, or an example, and the live
stack reads clocks and opens sockets only through ``repro.runtime``.
The checks read source with ``ast``; nothing here imports the modules
it checks.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Where the walk starts.  Every ``repro`` import in ``examples/*.py``
#: is a root too.
ROOTS = ("repro.cli", "repro.__main__", "repro.live.__main__", "repro.faults.__main__")


def _imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_no_shipped_module_imports_benchmarks():
    offenders = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported(ast.parse(path.read_text(encoding="utf-8")))
        if name == "benchmarks" or name.startswith("benchmarks.")
    ]
    assert offenders == []


# -- the runtime seam ----------------------------------------------------------

#: Where the live stack lives; all of it asks ``repro.runtime`` for the
#: time and for sockets.
LIVE_STACK = ("live", "gateway", "discovery", "httpd.py", "cli.py")

#: Host calls only ``repro/runtime.py`` may make.
HOST_CALLS = {
    "time.time", "time.monotonic", "asyncio.start_server",
    "asyncio.open_connection", "socket.socket",
}


def _host_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "create_datagram_endpoint":
                yield node.attr
            elif (isinstance(node.value, ast.Name)
                    and f"{node.value.id}.{node.attr}" in HOST_CALLS):
                yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if f"{node.module}.{alias.name}" in HOST_CALLS:
                    yield f"{node.module}.{alias.name}"


def test_the_live_stack_reaches_its_host_only_through_the_runtime():
    paths = [path for entry in LIVE_STACK
             for path in ([SRC / entry] if entry.endswith(".py")
                          else sorted((SRC / entry).rglob("*.py")))]
    offenders = [
        f"{path.relative_to(SRC.parent)}: {call}"
        for path in paths
        for call in _host_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []
    # ... and the runtime really is where they went.
    runtime = set(_host_calls(ast.parse(
        (SRC / "runtime.py").read_text(encoding="utf-8"))))
    assert runtime == HOST_CALLS | {"create_datagram_endpoint"}


# -- reachability ------------------------------------------------------------

def _module_paths() -> dict[str, pathlib.Path]:
    paths = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


@functools.lru_cache(maxsize=None)
def _tree(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(encoding="utf-8"))


def _top_level_bindings(module: str) -> dict[str, tuple[str, str]]:
    """Names that *module*'s top level binds by ``from X import name``."""
    bindings = {}
    for node in _tree(module).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bindings[alias.asname or alias.name] = (node.module, alias.name)
    return bindings


def _definition(module: str, name: str):
    """The top-level ``def`` / ``class`` / assignment of *name* in *module*."""
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    return None


def _resolve(module: str, name: str) -> tuple[str, str]:
    """Follow re-exports: the module that defines ``module.name``.

    Returns ``(defining module, name there)``; a submodule comes back
    as ``(submodule, "")``.
    """
    if module not in MODULES:
        return module, name
    if _is_package(module):
        binding = _top_level_bindings(module).get(name)
        if binding is not None and binding[0] in MODULES:
            return _resolve(*binding)
        if f"{module}.{name}" in MODULES and _definition(module, name) is None:
            return f"{module}.{name}", ""
    return module, name


def _registers(module: str) -> bool:
    """Does importing *module* register something (a top-level
    ``@register_x`` decorator)?  Such a module is used by a lookup by
    name, not by an import."""
    return any(
        getattr(decorator, "id", "").startswith("register")
        for node in _tree(module).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for decorator in node.decorator_list
    )


def _uses(tree: ast.AST):
    """The ``(module, name)`` pairs that code in *tree* reaches."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ""
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                target = _resolve(node.module, alias.name)
                yield target
                if target[1] == "" and _is_package(target[0]):
                    aliases[alias.asname or alias.name] = target[0]
    # A package imported as an object is reached through its attributes.
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield _resolve(aliases[node.value.id], node.attr)


def _registering_imports(package: str):
    """The submodules *package*'s ``__init__`` imports that register
    something when imported."""
    for binding in _top_level_bindings(package).values():
        module, _ = _resolve(*binding)
        if module in MODULES and not _is_package(module) and _registers(module):
            yield module, ""


def _reached() -> set[str]:
    reached: set[str] = set()
    seen: set[tuple[str, str]] = set()
    work = [(root, "") for root in ROOTS]
    for example in sorted((ROOT / "examples").glob("*.py")):
        work.extend(_uses(ast.parse(example.read_text(encoding="utf-8"))))

    while work:
        module, name = item = work.pop()
        if module not in MODULES or item in seen:
            continue
        seen.add(item)
        # Importing a module runs every enclosing package's __init__;
        # of what that imports, only self-registering submodules count.
        parts = module.split(".")
        for depth in range(1, len(parts) + 1):
            package = ".".join(parts[:depth])
            if _is_package(package) and package not in reached:
                reached.add(package)
                work.extend(_registering_imports(package))
        if not _is_package(module):
            if module not in reached:
                reached.add(module)
                work.extend(_uses(_tree(module)))
        elif (definition := _definition(module, name)) is not None:
            # A name the __init__ defines itself: follow what it uses.
            bindings = _top_level_bindings(module)
            work.extend(_resolve(*bindings[node.id]) for node in ast.walk(definition)
                        if isinstance(node, ast.Name) and node.id in bindings)
    return reached


def test_every_shipped_module_is_reached():
    """A module no entry point reaches is dead weight that every change
    to its imports must still carry.  Delete it, or move it next to its
    only user under ``benchmarks/``."""
    unreached = sorted(set(MODULES) - _reached())
    assert not unreached, f"no entry point reaches {', '.join(unreached)}"
