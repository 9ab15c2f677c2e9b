"""Exact-arithmetic K-theory of complex projective spaces.

The package computes, with no floating point anywhere, the K-groups and
the virtual-bundle ring of complex projective spaces and spheres.  It is
built from five layers: integer linear algebra (Smith normal form and
friends), homological algebra over Z (chain complexes, exact sequences,
the Five Lemma), group completion of commutative monoids, truncated
polynomial rings over exact rationals, and the Chern character calculus
on top of Newton's identities.

The six compute modules, the private _elimination that linalg calls for
matrices outside its closed form, the private _groups that holds the
abelian groups linalg, grothendieck and ktheory return, the private
_powers that truncpoly and the ring of ktheory share, the private
_certify that certifies the induction for ktheory and trace, and the
private _replay that holds the older replay trace prints, are loaded
lazily: each is in sys.modules and is an attribute of the package from the
start, but its code runs on the first attribute read.  The names below
are re-exported on first use.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_EXPORTS = {
    "linalg": (
        "FgAbelianGroup",
        "IntegerMatrix",
        "SmithForm",
        "cokernel",
        "is_isomorphism",
        "kernel_basis",
        "smith_normal_form",
        "solve_integer",
    ),
    "homology": (
        "ChainComplex",
        "FiveLemmaContradictionError",
        "FiveLemmaHypothesisError",
        "GroupSequence",
        "Ladder",
        "cohomology",
        "cpn_complex",
        "five_lemma_check",
        "induced_map_is_isomorphism",
        "is_exact_at",
        "sphere_complex",
        "split_free_extension",
    ),
    "grothendieck": (
        "CompletionHomomorphism",
        "FiniteCommutativeMonoid",
        "FreeCommutativeMonoid",
        "GrothendieckGroup",
        "completion",
        "pair_equivalent",
        "universal_factor",
    ),
    "truncpoly": (
        "MultiPoly",
        "TruncPoly",
        "pairing_matrix",
    ),
    "chern": (
        "FormalBundle",
        "NewtonPolynomial",
        "chern_character",
        "line_bundle",
        "newton_s",
        "tensor_line",
        "whitney_sum",
    ),
    "ktheory": (
        "InductionStep",
        "InductionTrace",
        "KClass",
        "KGroupTable",
        "Space",
        "bott_check",
        "bott_matrix",
        "ch_matrix",
        "chern_character_map",
        "k_group_table",
        "k_groups",
        "k_ring_mul",
        "reduced_sphere_k",
        "replay_induction",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy_submodule(name: str):
    """Register kproj.<name> in sys.modules; its code runs on the first attribute read."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({module: _lazy_submodule(module)
                  for module in (*_EXPORTS, "_certify", "_elimination", "_groups", "_powers",
                                 "_replay")})

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_OWNER})
