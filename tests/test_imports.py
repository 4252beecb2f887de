"""The package's lazy exports: what ``import perronnet`` and a load import,
and that every public name still resolves."""

import pytest

import perronnet

from conftest import run_fresh

SOLVER_MODULES = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def test_import_and_load_leave_the_solver_modules_unimported(tmp_path):
    mpx = tmp_path / "mpx.edges"
    mpx.write_text("3 2\n1 1 2 1.0\n1 2 3 1.0\n2 3 1 0.5\n")
    out = run_fresh(
        "import sys, perronnet\n"
        f"assert perronnet.__file__ == {perronnet.__file__!r}\n"
        "perronnet.load_demo_network()\n"
        f"perronnet.load_multiplex({str(mpx)!r}, gamma=1.0)\n"
        f"print([m for m in {SOLVER_MODULES!r} if m in sys.modules])\n"
        "print(sorted(m for m in sys.modules if m.startswith('perronnet')))\n")
    solver, ours = out.splitlines()
    assert solver == "[]"
    assert ours == "['perronnet', 'perronnet.errors', 'perronnet.model']"


def test_every_public_name_resolves_in_a_fresh_interpreter():
    out = run_fresh(
        "import perronnet\n"
        "listed = set(dir(perronnet))\n"
        "print(sorted(n for n in perronnet.__all__ if n not in listed))\n"
        "for name in perronnet.__all__:\n"
        "    getattr(perronnet, name)\n"
        "ns = {}\n"
        "exec('from perronnet import *', ns)\n"
        "print(sorted(set(perronnet.__all__) - set(ns)))\n")
    assert out.splitlines() == ["[]", "[]"]


def test_a_resolved_name_is_its_module_object():
    from perronnet import eigen, model, sensitivity
    assert perronnet.perron is eigen.perron
    assert perronnet.Network is model.Network
    assert perronnet.wilkinson is sensitivity.wilkinson
    assert "perron" in vars(perronnet)  # cached after the first lookup


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        perronnet.no_such_name
