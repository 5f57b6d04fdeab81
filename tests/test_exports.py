"""The public names of the package: each module's ``__all__`` and the
names ``cvmb/__init__.py`` re-exports from it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import cvmb


def test_every_public_name_resolves_and_is_listed():
    modules = {f"cvmb.{info.name}": importlib.import_module(f"cvmb.{info.name}")
               for info in pkgutil.iter_modules(cvmb.__path__)}
    assert set(modules) == {"cvmb.bounds", "cvmb.cli", "cvmb.gaussian",
                            "cvmb.holevo", "cvmb.simulate"}
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
