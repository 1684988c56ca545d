"""Fine-scale statistics of dilated integer sequences modulo one.

Dilate the first N terms of an integer sequence by a real factor, wrap
into [0, 1), and measure how the points fill space: window-count number
variance, pair correlation (direct and spectral routes), additive
energy of the generating integers, and the analytic identities tying
those quantities together.  Dilation arithmetic is exact 128-bit
fixed point, so every statistic is reproducible to the last bit.
"""

from .errors import (
    BudgetError,
    ConfigError,
    DuplicateError,
    NumvarError,
    SupportError,
    WindowError,
)
from .fixedpoint import FRACTION_BITS, FixedPointReal
from .sequences import (
    IntegerSequence,
    PointSet,
    SequenceSpec,
    dilate_mod1,
    generate_sequence,
    load_sequence_file,
    sample_alpha,
)
from .stats import (
    PairCorrResult,
    TestFunction,
    VarianceResult,
    WindowParams,
    count_in_interval,
    number_variance_exact,
    number_variance_fourier,
    number_variance_montecarlo,
    pair_correlation_direct,
    pair_correlation_fourier,
    tent,
    tent_fourier,
)
from .energy import (
    DifferenceProfile,
    EnergyProfile,
    additive_energy,
    difference_count,
    difference_energy,
    difference_profile,
    gcd_sum_diagnostic,
)
from .theory import (
    FourierCoefficient,
    LemmaResult,
    centered_statistic,
    deviation_measure,
    fourier_coefficient,
    lemma1_check,
    lemma2_check,
    mean_pair_correlation,
    pair_correlation_grid,
    x_second_moment,
)
from .harness import (
    ExperimentConfig,
    ExperimentRow,
    config_from_mapping,
    load_config_file,
    parse_schedule,
    rows_from_csv,
    rows_to_csv,
    run_energy_sweep,
    run_variance_experiment,
    run_verification_suite,
    summary_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConfigError",
    "DuplicateError",
    "NumvarError",
    "SupportError",
    "WindowError",
    "FRACTION_BITS",
    "FixedPointReal",
    "IntegerSequence",
    "PointSet",
    "SequenceSpec",
    "dilate_mod1",
    "generate_sequence",
    "load_sequence_file",
    "sample_alpha",
    "PairCorrResult",
    "TestFunction",
    "VarianceResult",
    "WindowParams",
    "count_in_interval",
    "number_variance_exact",
    "number_variance_fourier",
    "number_variance_montecarlo",
    "pair_correlation_direct",
    "pair_correlation_fourier",
    "tent",
    "tent_fourier",
    "DifferenceProfile",
    "EnergyProfile",
    "additive_energy",
    "difference_count",
    "difference_energy",
    "difference_profile",
    "gcd_sum_diagnostic",
    "FourierCoefficient",
    "LemmaResult",
    "centered_statistic",
    "deviation_measure",
    "fourier_coefficient",
    "lemma1_check",
    "lemma2_check",
    "mean_pair_correlation",
    "pair_correlation_grid",
    "x_second_moment",
    "ExperimentConfig",
    "ExperimentRow",
    "config_from_mapping",
    "load_config_file",
    "parse_schedule",
    "rows_from_csv",
    "rows_to_csv",
    "run_energy_sweep",
    "run_variance_experiment",
    "run_verification_suite",
    "summary_to_json",
    "__version__",
]
