"""The package's public names, and that no package module reaches into tests/.

The judges and pinned constants that only the tests use live in
tests/judges.py and tests/pins.py, and the tests import them by name, as
they import conftest.  An installed package has no tests/ beside it, so a
module of src/gridthresh that imported one of them would fail there.
"""

import ast
from pathlib import Path

import gridthresh

PACKAGE = Path(gridthresh.__file__).resolve().parent

# public names that were only used by the tests, now in judges.py or gone
REMOVED = ("HalfInt", "Line", "anisotropic_estimate", "equivalent", "lattice_points_on",
           "predict_size", "u_naive", "uv_square_sequence", "zero_set")

TEST_MODULES = {"judges", "pins", "conftest"}


def _imported(tree: ast.AST) -> set[str]:
    """The first component of every module an import names, and every name
    a ``from`` import takes (``from . import pins`` names ``pins`` there)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[0])
            names.update(alias.name for alias in node.names)
    return names


def test_public_surface_resolves_and_imports_nothing_from_tests():
    assert len(set(gridthresh.__all__)) == len(gridthresh.__all__)
    for name in gridthresh.__all__:
        assert hasattr(gridthresh, name), name
    for name in REMOVED:
        assert not hasattr(gridthresh, name), name
        assert name not in gridthresh.__all__, name
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        assert path.stem not in TEST_MODULES, path.name
        reached = _imported(ast.parse(path.read_text(), str(path))) & TEST_MODULES
        assert not reached, (path.name, reached)
