"""The traced benchmark run (perfbench/spans.py) finds every binding it
wraps, so a refactor that drops or renames one fails here first."""

import importlib.util
import os

import paratori.cli  # noqa: F401  (imports every module the tracer wraps)

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_tracer_wraps_every_target_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()  # raises when a target stays reachable unwrapped
    try:
        patched = list(tracer._patched)
        for _, module, path in spans.TARGETS:
            assert hasattr(spans._resolve(module, path), "__wrapped__"), path
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
