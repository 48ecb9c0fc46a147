"""The benchmark's tracer (perfbench/launcher.py) patches layer functions
by module and attribute name; every name it lists must resolve in the
package, or traced benchmark runs fail."""

import importlib
import importlib.util
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"


def _launcher():
    spec = importlib.util.spec_from_file_location("perfbench_launcher", LAUNCHER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    patches = _launcher().PATCHES
    assert patches
    missing = []
    for module_name, attr_path, _span in patches:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}:{attr_path}")
    assert not missing, f"names the tracer patches are gone: {missing}"
