"""Exact arithmetic for Cantor-Moran measures with consecutive digit sets:
spectrality decisions, spectrum construction and verification, suitable
decompositions, integer tiling of iterated digit sets, and the
uniform-convolution identity at finite truncation level."""

from .errors import (BudgetError, HorizonError, InvariantError, MoranError,
                     NotSpectralError, ParseError, PrecisionError)
from .fourier import (MeasureWindow, TransformValue, ZeroStratumHit,
                      evaluate_transform, factor_transform, zero_stratum)
from .fuglede import FugledeReport, convolve_uniform_check, fuglede_report
from .spectra import (CandidateSet, DecompositionResult, SpectrumCertificate,
                      canonical_spectrum, is_bizero, is_spectrum,
                      maximal_bizero_subset, parse_candidates, q_function,
                      q_grid, spectrum_search, suitable_decomposition,
                      truncation_spectral_verdict, verify_decomposition)
from .system import (ConvergenceReport, DigitLevel, FormulaTail, MoranSystem,
                     PeriodicTail, SupportInfo, check_convergence,
                     format_rational, parse_rational, parse_system,
                     serialize_system, support_info)
from .tiling import (IteratedDigitSet, TileVerdict, canonical_complement,
                     is_integer_tile, iterated_digits, tijdeman_rescale)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
