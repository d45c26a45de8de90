"""No norm or dot product in the package may go through BLAS.

OpenBLAS splits a long dot product's sum by thread, so a BLAS call makes the
last bits of a result depend on the thread count, and its worker thread
spins on a core the run needs.  Norms use ``aggregation.l2_norm`` and dot
products ``np.add.reduce(a * b)``: numpy's pairwise sum, the same bits on any
thread count.  ``np.linalg.norm(..., axis=...)`` is a numpy reduction too and
is allowed.
"""

import ast
from pathlib import Path

import fedmesh

SOURCES = sorted(Path(fedmesh.__file__).parent.glob("*.py"))
_NUMPY_PRODUCTS = {"vdot", "inner", "matmul"}  # np.dot is caught as any .dot(


def _dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def blas_calls(source: str) -> list[tuple[int, str]]:
    """(line, what) for each construct in *source* that runs through BLAS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@ operator"))
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            module, _, attr = name.rpartition(".")
            if isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
                found.append((node.lineno, ".dot("))
            elif module in ("np", "numpy") and attr in _NUMPY_PRODUCTS:
                found.append((node.lineno, f"{name}("))
            elif name in ("np.linalg.norm", "numpy.linalg.norm") and not any(
                k.arg == "axis" for k in node.keywords
            ):
                found.append((node.lineno, f"{name}( without axis="))
    return sorted(found)


def test_the_scan_finds_every_blas_form():
    source = "\n".join([
        "a @ b", "a @= b", "f(a).dot(b)", "np.dot(a, b)", "np.vdot(a, b)",
        "np.inner(a, b)", "numpy.matmul(a, b)", "np.linalg.norm(a)",
        "np.linalg.norm(a, axis=1)", "np.add.reduce(a * b)", "dot(a)",
    ])
    assert [line for line, _ in blas_calls(source)] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_package_sources_make_no_blas_call():
    assert SOURCES
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in blas_calls(path.read_text(encoding="utf-8"))
    ]
    assert not found, found
