"""The benchmark's tracer (``perfbench/spans.py``) wraps program functions
by name; a rename must fail here rather than break a traced run.  The
benchmark's self-test runs here too, so that a change the benchmark's
checks reject fails the test suite."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SELFTEST = SPANS.parent / "selftest.py"


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


def test_the_benchmark_selftest_passes():
    """Every workload in small mode passes the benchmark's checks, which
    reject every corrupted result (``perfbench/selftest.py``)."""
    out = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selftest: PASS"
