"""The benchmark tracer wraps functions by name; those names must exist.

`perfbench/spans.py` lists (module, name) pairs of `toposkms` and wraps
the `cli.SUITES` entries.  A rename in the package that is not mirrored
there would break `perfbench/run.py --trace 1`; this test fails first.
"""
import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve_in_the_package():
    spans = load_spans()
    assert spans.TARGETS
    for mod_name, attr in spans.TARGETS:
        module = importlib.import_module(f"toposkms.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
    from toposkms import cli

    assert isinstance(cli.SUITES, dict) and cli.SUITES
    assert all(callable(fn) for fn in cli.SUITES.values())
