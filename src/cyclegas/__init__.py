"""Black-body radiation and ideal Bose-gas thermodynamics from the
permutation-cycle expansion, with brute-force oracles and Monte Carlo
cross-checks.

Each public name is imported from its module on first access (PEP 562), so
`import cyclegas` loads no submodule and no numpy.  numpy loads with
`oracle` and `sampler`, and in the functions elsewhere that build arrays.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_PUBLIC = {
    "core": (
        "ConvergenceError",
        "DomainError",
        "SizeError",
        "ThermoState",
        "UnitsPolicy",
        "bose_integral",
        "bose_quadrature",
        "polylog",
        "riemann_zeta",
    ),
    "cycle_weights": (
        "decay_comparison",
        "matter_cycle_weight",
        "matter_cycle_weight_by_quadrature",
        "photon_cycle_weight",
        "photon_cycle_weight_by_quadrature",
    ),
    "observables": (
        "BandSpec",
        "FluctuationReport",
        "band_fluctuation",
        "coherence_volume_photon_count",
        "energy_variance",
        "energy_variance_finite_difference",
        "mean_energy",
        "mean_energy_finite_difference",
        "photon_number_density",
        "photon_number_density_cycle_sum",
        "planck_spectral_density",
        "spectral_energy_density_integral",
        "wien_peak_x",
    ),
    "oracle": (
        "ModeSpectrum",
        "canonical_by_occupation",
        "canonical_by_permutations",
        "grand_partition_cycle",
        "grand_partition_product",
        "load_spectrum",
    ),
    "partition": (
        "CycleSumSequence",
        "bose_number_density_cycle",
        "bose_number_density_integral",
        "canonical_partition_enumerated",
        "canonical_partition_table",
        "cycle_types",
        "grand_partition_from_canonical",
        "log_grand_partition_cycle_series",
        "log_grand_partition_integral",
        "log_grand_partition_product_form",
        "tail_bracket",
    ),
    "sampler": (
        "SampleConfig",
        "SampleReport",
        "estimate_observables",
        "histogram_loglog_slope",
        "sample_cycle_configuration",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted([*_PUBLIC, *_MODULE_OF])


def __getattr__(name):
    if name in _PUBLIC:  # importing a submodule binds it in this namespace
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups are plain dict hits
    return value


def __dir__():
    return sorted({*globals(), *__all__})
