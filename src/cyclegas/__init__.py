"""Black-body radiation and ideal Bose-gas thermodynamics from the
permutation-cycle expansion, with brute-force oracles and Monte Carlo
cross-checks."""

from .core import (
    ConvergenceError,
    DomainError,
    SizeError,
    ThermoState,
    UnitsPolicy,
    bose_integral,
    bose_quadrature,
    polylog,
    riemann_zeta,
)
from .cycle_weights import (
    decay_comparison,
    matter_cycle_weight,
    matter_cycle_weight_by_quadrature,
    photon_cycle_weight,
    photon_cycle_weight_by_quadrature,
)
from .observables import (
    BandSpec,
    FluctuationReport,
    band_fluctuation,
    coherence_volume_photon_count,
    energy_variance,
    energy_variance_finite_difference,
    mean_energy,
    mean_energy_finite_difference,
    photon_number_density,
    photon_number_density_cycle_sum,
    planck_spectral_density,
    spectral_energy_density_integral,
    wien_peak_x,
)
from .oracle import (
    ModeSpectrum,
    canonical_by_occupation,
    canonical_by_permutations,
    grand_partition_cycle,
    grand_partition_product,
    load_spectrum,
)
from .partition import (
    CycleSumSequence,
    bose_number_density_cycle,
    bose_number_density_integral,
    canonical_partition_enumerated,
    canonical_partition_table,
    cycle_types,
    grand_partition_from_canonical,
    log_grand_partition_cycle_series,
    log_grand_partition_integral,
    log_grand_partition_product_form,
    tail_bracket,
)
from .sampler import (
    SampleConfig,
    SampleReport,
    estimate_observables,
    histogram_loglog_slope,
    sample_cycle_configuration,
)

__version__ = "0.1.0"
