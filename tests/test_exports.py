"""The public names of the package: each module's ``__all__`` and the
names ``cvmb/__init__.py`` re-exports from it."""

import ast
import graphlib
import importlib
import pkgutil
from pathlib import Path

import cvmb


def test_every_public_name_resolves_and_is_listed():
    modules = {f"cvmb.{info.name}": importlib.import_module(f"cvmb.{info.name}")
               for info in pkgutil.iter_modules(cvmb.__path__)}
    assert set(modules) == {"cvmb.bounds", "cvmb.cli", "cvmb.gaussian",
                            "cvmb.holevo", "cvmb.inputs", "cvmb.simulate"}
    for name, module in modules.items():
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
    imports = [node for node in ast.parse(Path(cvmb.__file__).read_text(encoding="utf-8")).body
               if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports] == ["cvmb.gaussian", "cvmb.bounds",
                                                 "cvmb.holevo", "cvmb.simulate"]
    for node in imports:
        unlisted = [alias.name for alias in node.names
                    if alias.name not in modules[node.module].__all__]
        assert not unlisted, f"cvmb imports {unlisted} from {node.module} outside its __all__"


def test_package_imports_are_acyclic():
    # every import, those inside functions included; cvmb/__init__.py
    # imports the modules, not the other way round
    src = Path(cvmb.__file__).parent
    modules = {f"cvmb.{path.stem}": path for path in src.glob("*.py") if path.stem != "__init__"}
    graph = {}
    for name, path in modules.items():
        graph[name] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            graph[name] |= {target for target in targets if target in modules}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
    assert graph["cvmb.inputs"] == set(), "cvmb.inputs must import nothing from cvmb"
    # holevo_value reads trabs(Im Z) off two entries, so no bounds import is needed
    assert graph["cvmb.holevo"] == {"cvmb.gaussian", "cvmb.inputs"}
