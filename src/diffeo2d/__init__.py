"""2D diffeomorphic displacement-field algebra, Log-Euclidean statistics,
inverse-consistent registration, and iterative atlas estimation."""

__version__ = "0.1.0"

from .atlas import (
    AtlasConfig,
    AtlasState,
    atlas_step,
    estimate_atlas,
    pixelwise_mean_atlas,
)
from .errors import ConvergenceError, DomainError, RankError, ShapeError
from .fileio import (
    read_basis,
    read_field,
    read_pgm,
    read_pgm_labels,
    write_basis,
    write_csv,
    write_field,
    write_pgm,
)
from .fields import (
    DisplacementField,
    Grid,
    LabelImage,
    LogField,
    ScalarImage,
    compose,
    field_rms_diff,
    identity_field,
    jacobian_determinant,
    neg_jacobian_fraction,
    sample_field,
    self_compose_m,
    warp_image,
    warp_labels,
)
from .latent import (
    LogEuclideanBasis,
    decode,
    decode_root,
    encode,
    explained_variance,
    fit_basis,
    pca_mode_field,
)
from .lie import (
    FieldSolution,
    RootChain,
    SolverConfig,
    exp_field,
    invert,
    log_field,
    root_chain,
    sqrt_field,
)
from .metrics import (
    LossWeights,
    dice,
    dice_report,
    inv_loss,
    latent_inv_loss,
    rec_loss,
    secondary_loss,
)
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    icon_loss,
    primary_loss,
    register_pair,
    register_pairs,
    sim_loss,
)
from .synth import (
    PhantomSpec,
    RandomFieldSpec,
    Subject,
    make_phantom,
    make_subject,
    phantom_intensity,
    random_log_field,
)
