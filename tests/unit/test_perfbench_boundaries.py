"""The repository benchmark's span boundaries still name real code.

``perfbench/layers.py`` wraps the program's layer boundaries by name
(``Tracer.wrap`` reads a class attribute from the class's own
``__dict__``), so a refactor that moves or deletes a wrapped function
would only fail the traced benchmark run.  This guard fails in
seconds instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize(
    "module_name, class_name, attr, span",
    _boundaries(),
    ids=lambda value: value if isinstance(value, str) else "module",
)
def test_boundary_resolves_in_owner_dict(module_name, class_name, attr, span):
    module = importlib.import_module(module_name)
    owner = module if class_name is None else getattr(module, class_name)
    assert attr in vars(owner), f"{span}: {attr!r} is not defined on {owner!r}"
    assert callable(vars(owner)[attr])
