"""Every BLAS or LAPACK call in the package is listed, with its reason.

BLAS and LAPACK pick their kernels by CPU, so a result that passes through
them can change bits from one machine to another.  The package avoids them
where it can; the sites that remain are listed here, keyed by (module,
enclosing function, construct).  A new site fails the test until it is
listed, and a listed site that is gone fails it until it is struck, so the
list can only shrink with the code.
"""

import ast
import pathlib

import numpy as np

import symcone
from symcone.algebra import _row_dots
from symcone.rng import SplitMix64

SRC = pathlib.Path(symcone.__file__).parent

# numpy functions that hand their work to BLAS.
_BLAS = ("dot", "matmul", "inner", "vdot", "tensordot")

ALLOWED = {
    ("algebra", "_ORTHANT_KERNEL", "np.dot"): "orthant trace form <x, y>",
    ("algebra", "_SYM_KERNEL", "@"): "sym Jordan product (xy + yx) / 2",
    ("algebra", "_SPIN_KERNEL", "np.dot"): "spin trace form 2 <x, y>",
    ("algebra", "_lower_solve", "@"): "forward substitution: row of L times the solved prefix",
    ("algebra", "_sym_quad", "@"): "closed-form P(a)x = a x a on sym, one stacked product per batch",
    ("algebra", "_sym_congruence", "@"): ("congruence t^T x t, and V^T x V onto a carried basis V, "
                                          "one stacked product per batch"),
    ("algebra", "_sym_random_point", "@"): "random sym point q diag(l) q^T",
    ("algebra", "_spin_product", "np.dot"): "head <x, y> of the spin product",
    ("algebra", "_spin_quad_floats", "np.dot"): "<a, x> of one point's closed-form spin P(a)x",
    ("algebra", "_row_dots", "@"): "row dots <a_i, b_i>: a batch's spin P(a)x, norms of spin draws",
    ("rng", "SplitMix64.rotation", "np.linalg.qr"): "random rotation from the QR of a normal matrix",
    ("transforms", "numerically_singular", "np.linalg.slogdet"): "log |det t| of the singularity test",
    ("transforms", "random_word", "@"): "random congruence factor q1 diag(s) q2",
}


def _construct(node):
    """The BLAS or LAPACK construct at node, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Attribute):
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "np" and node.attr in _BLAS:
            return f"np.{node.attr}"
        if (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name) and owner.value.id == "np"):
            return f"np.linalg.{node.attr}"
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
        # A name imported from numpy would hide a call from this scan.
        return f"from {node.module} import"
    return None


def _sites(module, tree):
    """(module, scope, construct) of each site; the scope of a module-level
    assignment, such as a kernel record of lambdas, is its target."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif not scope and isinstance(child, ast.Assign):
                inner = tuple(t.id for t in child.targets if isinstance(t, ast.Name))
            construct = _construct(child)
            if construct is not None:
                found.add((module, ".".join(inner) or "<module>", construct))
            visit(child, inner)

    visit(tree, ())
    return found


def test_every_blas_and_lapack_site_is_listed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _sites(path.stem, ast.parse(path.read_text(), str(path)))
    assert sorted(found - ALLOWED.keys()) == [], "unlisted BLAS/LAPACK sites"
    assert sorted(ALLOWED.keys() - found) == [], "listed sites that are gone"
    assert not any(c == "np.linalg.inv" for _, _, c in ALLOWED)


def test_the_scan_sees_each_construct():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "K = f(lambda x: np.dot(x, x))\n"
        "class C:\n"
        "    def m(self, a):\n"
        "        a @= a\n"
        "        return np.linalg.inv(a @ a), np.matmul(a, a)\n"
    )
    assert _sites("mod", tree) == {
        ("mod", "<module>", "from numpy.linalg import"),
        ("mod", "K", "np.dot"),
        ("mod", "C.m", "@"),
        ("mod", "C.m", "np.linalg.inv"),
        ("mod", "C.m", "np.matmul"),
    }


_DOT_LENGTHS = list(range(1, 41)) + [64, 65, 128, 129, 513]


def test_stacked_row_dots_are_np_dot_bit_for_bit():
    # Spin random points and the batch spin P(a)x take their dot products
    # as one stacked matmul (algebra._row_dots), and a single point takes
    # np.dot or np.linalg.norm; their bits agree only while numpy hands
    # each row of the stack to the same BLAS dot product.
    rng = SplitMix64(2020)
    for n in _DOT_LENGTHS:
        rows = rng.normals(9 * (n + 1)).reshape(9, n + 1)
        a = rows[0, 1:]
        for b in (rows[:, 1:], rows[1:, :n], rows[::2, 1:]):  # strided rows too
            want = [np.dot(x, y) for x, y in zip(b, b[::-1])]
            got = _row_dots(b, b[::-1])
            assert got.shape == (len(b), 1)
            assert got[:, 0].tobytes() == np.array(want).tobytes(), n
            assert _row_dots(a, b)[:, 0].tobytes() == np.array([np.dot(a, x) for x in b]).tobytes()
            assert _row_dots(b, a)[:, 0].tobytes() == np.array([np.dot(x, a) for x in b]).tobytes()
            norms = np.sqrt(_row_dots(b, b))[:, 0]
            assert norms.tobytes() == np.array([np.linalg.norm(x) for x in b]).tobytes()
