"""Computable homological algebra over f.p. modules, and the functors on them.

The package is layered: ``linalg`` holds exact matrix arithmetic and
Smith normal form, ``modules`` the category of finitely presented
modules, ``functors`` the coherent-functor calculus, ``oracle`` the
independent brute-force verification layer, and ``cli`` the command
line front end.
"""

from .linalg import (
    BaseRing,
    Matrix,
    SnfResult,
    smith_normal_form,
    solve_matrix,
)
from .modules import (
    FpModule,
    HomGroup,
    ModMorphism,
    canonical_form,
    cokernel_mor,
    compose_mor,
    direct_sum,
    free_presentation,
    hom_group,
    identity_mor,
    kernel_mor,
    render_group,
    zero_mor,
)
from .functors import (
    CoherentFunctor,
    FourTermData,
    InjectiveResolution,
    NatGroup,
    NatMorphism,
    coker_nat,
    compose_nat,
    embed_injective,
    evaluate,
    evaluate_mor,
    evaluate_nat,
    four_term,
    identity_nat,
    injective_resolution,
    inj_stabilize,
    is_inj_stable,
    is_injective_functor,
    is_proj_stable,
    is_representable,
    is_zero_functor,
    ker_nat,
    l0_functor,
    nat_group,
    proj_stabilize,
    r0_functor,
    tensor_functor,
    w_mor,
    w_of,
    yoneda_embed,
    yoneda_mor,
)

__version__ = "0.1.0"
