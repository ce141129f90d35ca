"""The benchmark tracer looks library functions up by name; a refactor that
drops or renames one of them must fail here rather than in a traced run."""

import importlib.util
import sys
from pathlib import Path

import zigzag.cli  # noqa: F401  (loads every module the tracer patches)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolve(mod, path):
    obj = sys.modules[f"zigzag.{mod}"]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_resolves_and_restores_every_target():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = [_resolve(*target) for target in tracer.TARGETS]
    mesh_in_cli = sys.modules["zigzag.cli"].generate_mesh
    t = tracer.Tracer()  # raises AttributeError for a missing target
    with t.installed():
        for target, fn in zip(tracer.TARGETS, originals):
            assert _resolve(*target) is not fn, target
        assert sys.modules["zigzag.cli"].generate_mesh is not mesh_in_cli
    for target, fn in zip(tracer.TARGETS, originals):
        assert _resolve(*target) is fn, target
    assert sys.modules["zigzag.cli"].generate_mesh is mesh_in_cli
