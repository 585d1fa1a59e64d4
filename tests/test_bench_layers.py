"""The functions the benchmark's tracer wraps still exist in the package.

bench/tracer.py names each traced function by module and attribute path; a
kernel renamed without it would leave its layer empty in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    targets = [t for layer in tracer.LAYERS.values() for t in layer]
    targets += [*tracer.WORK_COUNTS, tracer.SWEEP]
    for mod_name, path in targets:
        owner = importlib.import_module(f"dehnsom.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"dehnsom.{mod_name}.{path} is not defined"
