"""The benchmark's tracer (``perfbench/spans.py``) wraps program functions
by name; a rename must fail here rather than break a traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_is_a_program_function():
    targets = load_spans().TARGETS
    assert targets
    for name, target in targets:
        mod_name, attr = target.split(":")
        owner = importlib.import_module("synergy." + mod_name)
        if "." in attr:
            # the tracer replaces the method in the class's own namespace
            cls_name, meth = attr.split(".")
            raw = vars(getattr(owner, cls_name, object)).get(meth)
            if isinstance(raw, classmethod):
                raw = raw.__func__
        else:
            raw = getattr(owner, attr, None)
        assert inspect.isfunction(raw), f"{name}: {target} is not a function"
