"""Reference constructions that the tests compare the package against.

Nothing in ``src/cohfun`` reads these; they live with the tests so that
the package carries no code only its tests need.
"""

from cohfun import FpModule, Matrix
from cohfun.linalg import hstack, kron


def tensor_module(a: FpModule, b: FpModule) -> FpModule:
    """Tensor product; generator (i, j) sits at flat index i*b.gens + j."""
    if a.ring != b.ring:
        raise ValueError("tensor of modules over different rings")
    ring = a.ring
    rels = hstack(
        kron(a.rels, Matrix.identity(ring, b.gens)),
        kron(Matrix.identity(ring, a.gens), b.rels),
    )
    return FpModule(ring, a.gens * b.gens, rels)
