"""The benchmark's traced names must exist: every ``module.function`` that
``benchmarks/tracing.py`` wraps resolves in the ``adaptsel`` package, so
renaming or deleting one fails here and not only in a traced benchmark
run."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves_in_adaptsel():
    traced = _traced()
    assert traced
    for mod, names in traced.items():
        module = importlib.import_module(f"adaptsel.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"
