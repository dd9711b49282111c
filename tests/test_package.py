"""The public names of the package and of its modules."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import bochnerkit


def test_every_public_name_resolves():
    # perfbench/tracer.py wraps the names in each module's __all__ through
    # getattr, so a name left there after its definition is deleted stops the
    # benchmark before it measures anything
    modules = [
        importlib.import_module(f"bochnerkit.{info.name}")
        for info in pkgutil.iter_modules(bochnerkit.__path__)
        if info.name != "__main__"
    ]
    for module in [bochnerkit] + modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
    # the package itself has no __all__: it re-exports names public in a module
    public = {name for module in modules for name in module.__all__}
    exported = {
        name for name, value in vars(bochnerkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported <= public, sorted(exported - public)


def test_readme_library_tour_runs():
    """The README's one python block runs on this checkout, so a name the tour
    calls cannot be deleted unnoticed."""
    root = Path(__file__).resolve().parents[1]
    (tour,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", tour], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
