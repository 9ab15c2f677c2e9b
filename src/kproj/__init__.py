"""Exact-arithmetic K-theory of complex projective spaces.

The package computes, with no floating point anywhere, the K-groups and
the virtual-bundle ring of complex projective spaces and spheres.  It is
built from five layers: integer linear algebra (Smith normal form and
friends), homological algebra over Z (chain complexes, exact sequences,
the Five Lemma), group completion of commutative monoids, truncated
polynomial rings over exact rationals, and the Chern character calculus
on top of Newton's identities.
"""

__version__ = "0.1.0"

from .linalg import (
    FgAbelianGroup,
    IntegerMatrix,
    SmithForm,
    cokernel,
    is_isomorphism,
    kernel_basis,
    lattice_contains,
    smith_normal_form,
    solve_integer,
)
from .homology import (
    ChainComplex,
    FiveLemmaContradictionError,
    FiveLemmaHypothesisError,
    GroupPresentation,
    GroupSequence,
    Ladder,
    cohomology,
    cpn_complex,
    five_lemma_check,
    induced_map_is_isomorphism,
    is_exact_at,
    sphere_complex,
    split_free_extension,
)
from .grothendieck import (
    CompletionHomomorphism,
    FiniteCommutativeMonoid,
    FreeCommutativeMonoid,
    GrothendieckGroup,
    completion,
    pair_equivalent,
    universal_factor,
)
from .truncpoly import (
    MultiPoly,
    TruncPoly,
    pairing_matrix,
)
from .chern import (
    FormalBundle,
    NewtonPolynomial,
    chern_character,
    line_bundle,
    newton_s,
    tensor_line,
    whitney_sum,
)
from .ktheory import (
    InductionStep,
    InductionTrace,
    KClass,
    KGroupTable,
    Space,
    bott_check,
    bott_matrix,
    ch_matrix,
    chern_character_map,
    k_group_table,
    k_groups,
    k_ring_mul,
    reduced_sphere_k,
    replay_induction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
