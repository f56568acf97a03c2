"""Del Pezzo root lattices, their mod-2 quadratic spaces, and exact
verification of the root/quadric and isometry-group correspondences."""

from . import errors
from .bridge import (VerificationReport, reduce_isometry, reduce_root,
                     reports_for, root_preimage, verify_corollary,
                     verify_lemma, verify_prop1, verify_prop2, verify_remarks)
from .f2 import (F2QuadraticSpace, arf, f2_reflection, orthogonal_generators,
                 radical, reduce, split_radical, symplectic_basis,
                 value_census)
from .groups import PermGroup
from .lattice import (Lattice, automorphism_group, automorphism_order,
                      build_del_pezzo, build_plain_root_lattice,
                      enumerate_roots, is_root, root_reflection,
                      simple_roots, weyl_generators)

__version__ = "0.1.0"

__all__ = [
    "errors", "__version__",
    # lattice
    "Lattice", "build_del_pezzo", "build_plain_root_lattice",
    "enumerate_roots", "is_root", "root_reflection", "simple_roots",
    "weyl_generators", "automorphism_group", "automorphism_order",
    # f2
    "F2QuadraticSpace", "reduce", "radical",
    "value_census", "symplectic_basis", "arf", "f2_reflection",
    "orthogonal_generators", "split_radical",
    # groups
    "PermGroup",
    # bridge
    "VerificationReport", "reduce_root", "root_preimage", "reduce_isometry",
    "verify_lemma", "verify_prop1", "verify_prop2", "verify_corollary",
    "verify_remarks", "reports_for",
]
