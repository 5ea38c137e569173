"""Free cumulants, rotationally-invariant AMP, and state evolution.

The package namespace carries the error classes, the five AMP runners with
their state-evolution recursions and verifiers, and the names the demos and
the README use.  Everything else is imported from its submodule.
"""

from .errors import (
    AmpLabError,
    DomainError,
    NumericalError,
    SizeLimitError,
    ValidationError,
)
from .laws import MarchenkoPastur, Semicircle, load_law_file
from .freeprob import (
    build_poly_family,
    cumulants_from_law,
    cumulants_to_moments_nc,
    mc_cumulants,
    moments_to_cumulants,
    partial_moments,
)
from .randmat import (
    RationalFn,
    build_rot_invariant,
    build_spiked,
    goe_ensemble,
    make_prior,
    overlap_measure,
    sample_haar_rotation,
)
from .denoisers import (linear_mmse_combining_denoiser, random_lipschitz_denoiser,
                        tanh_denoiser)
from .engines import (
    orthogonality_residuals,
    run_gaussian_amp,
    run_oamp,
    run_ri_amp,
    run_ri_amp_df,
    run_ri_amp_mp,
    ubar_divergences,
    verify_unfolding,
)
from .se import (
    SeInit,
    find_outlier,
    gaussian_amp_se,
    mp_denoise_fn,
    nu_measure,
    oamp_se,
    ri_amp_df_se,
    ri_amp_mp_se,
    ri_amp_se,
    spiked_se,
)

__version__ = "0.1.0"
