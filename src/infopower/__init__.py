"""Classical information extractable from quantum ensembles and measurements.

Core objects: Ensemble and Povm (states), SIC constructions and
certification (sic), entropies and dimensional bounds (infotheory),
Haar sampling and multi-start sphere optimization (optimize).
"""

from . import errors, hilbert, infotheory, optimize, sic, states
from .infotheory import (
    BoundSet,
    JointDistribution,
    bounds_for_dimension,
    conditional_output_entropy,
    index_of_coincidence,
    joint_distribution,
    mutual_information,
    shannon_entropy,
)
from .optimize import (
    HaarSampler,
    OptimizationReport,
    informational_power_lower_bound,
    min_output_entropy,
    scrooge_lower_bound_estimate,
    uniform_povm_approximant,
)
from .sic import (
    SicCertificate,
    antitetrahedral_ensemble,
    is_sic,
    qutrit_orthonormal_ensemble,
    qutrit_sic_povm,
    sic_ensemble_from_povm,
    sic_povm_from_ensemble,
    tetrahedral_povm,
    wh_covariant_povm,
)
from .states import (
    Ensemble,
    Povm,
    average_state,
    pretty_good_ensemble,
    pretty_good_povm,
    restrict_to_support,
)

__version__ = "0.1.0"
