"""The benchmark's tracer (perfbench/launcher.py) patches layer functions
by module and attribute name; every name it lists must resolve in the
package, or traced benchmark runs fail. Imports the package keeps only
for the tracer must still be patched, or they are dead code."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = ROOT / "perfbench" / "launcher.py"
TRACED_MARK = "# noqa: F401 - perfbench/launcher.py traces it here"


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


def test_every_tracer_only_import_is_patched():
    patched = {(module_name, attr_path) for module_name, attr_path, _ in _launcher().PATCHES}
    marked = []
    for path in sorted((ROOT / "src" / "flowad").glob("*.py")):
        for line in path.read_text().splitlines():
            if TRACED_MARK in line:
                name = line.split("#")[0].strip().rstrip(",").split()[-1]
                marked.append((f"flowad.{path.stem}", name))
    assert marked
    stale = [f"{m}:{name}" for m, name in marked if (m, name) not in patched]
    assert not stale, f"imports kept for the tracer that it no longer patches: {stale}"
