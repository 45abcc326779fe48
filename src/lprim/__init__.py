"""Distributions with L^p primitives.

An element f of L'^p is stored through a primitive F in L^p with f = F';
the pairing integral against multipliers G(x) = integral_0^x g with
g in L^q drives everything else: norms, duality, convolution products,
Fourier transforms, higher-order spaces, and the half-plane Poisson
extension.
"""

import ctypes
import sys

from .convolution import (
    ConvolutionResult,
    approx_identity,
    conv_lq,
    conv_multiplier,
    star,
)
from .corpus import corpus, corpus_members, sobolev_gn
from .errors import (
    ConvergenceError,
    EvalDomainError,
    ExponentError,
    IntegrabilityError,
    JetError,
    LprimError,
    ParseError,
    SchemaError,
)
from .expr import FunctionExpr
from .fourier import (
    ComplexValue,
    dfhat_vs_hatdf_exhibit,
    exchange_identity,
    fourier,
    fourier_n,
    fourier_primitive,
    inner_product,
    parseval_check,
    translation_modulation,
)
from .higher import (
    IteratedMultiplier,
    NthDistribution,
    intermediate_identity_check,
    norm_comparison_example,
    pair_n,
    pair_polynomial,
)
from .lpspace import (
    DeltaTrain,
    Multiplier,
    PrimitiveDistribution,
    abs_distribution,
    conjugate,
    dual_norm,
    gateaux_profile,
    join,
    leq,
    meet,
    membership_check,
    pair,
    pair_delta_train,
    reconstruct,
    step_approximate,
    translate,
    weak_vanishing_bound,
)
from .parser import parse_expr
from .poisson import (
    HalfPlanePoint,
    boundary_convergence,
    boundary_gaps,
    extension_n,
    extension_result,
    harmonic_extension,
    harmonicity_residual,
    kernel_dx,
    poisson_kernel,
)
from .quadrature import QuadConfig, QuadResult, integrate, integrate_line, lp_norm, sup_norm
from .verify import run_suites

__version__ = "0.1.0"


def _keep_heap():
    """Keep freed heap memory for the next request (glibc, mallopt(3)).

    A request's numpy temporaries reach about 1.3 MB.  glibc gives the top
    of the heap back to the system once more than M_TRIM_THRESHOLD of it is
    free, a threshold it raises only as blocks above M_MMAP_THRESHOLD are
    freed; unless an import happens to free a large block, it stays near
    1 MB, and every request faults its temporaries in on fresh pages.
    Fixed thresholds keep blocks below 4 MB on the heap and up to 16 MB of
    it free."""
    if sys.platform.startswith("linux"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


_keep_heap()
