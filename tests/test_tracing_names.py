"""perfbench's tracer finds the functions it spans by name, so every name it
lists must exist in the package; a deleted or renamed one would otherwise
only break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves():
    # install also counts the lines that neighbour.iter_lines_with_data yields
    names = (*_load_tracing().SPANNED, ("neighbour", "iter_lines_with_data"))
    missing = []
    for layer, attr in names:
        scope = importlib.import_module(f"hermhecke.{layer}")
        owner, _, name = attr.rpartition(".")
        if owner:  # a method is read from its class's own dict
            scope = getattr(scope, owner, None)
        if scope is None or name not in vars(scope):
            missing.append(f"{layer}.{attr}")
    assert not missing, f"spanned but not defined: {missing}"
