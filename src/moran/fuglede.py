"""Three-way equivalence at truncation level: spectrality verdict,
canonical spectrum and complement, exact uniform-convolution identity,
and the Kolmogorov gap to Lebesgue on [0, N_1/b_1]."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .spectra import (SPECTRAL, CandidateSet, SpectralVerdict,
                      canonical_spectrum, truncation_spectral_verdict)
from .system import MoranSystem
# convolve_uniform_check stays importable from here, part of this API
from .tiling import (ComplementCertificate, canonical_complement,
                     convolve_uniform_check)


@dataclass(frozen=True)
class FugledeReport:
    level: int
    verdict: SpectralVerdict
    interval: tuple[Fraction, Fraction]  # [0, N_1/b_1]
    spectrum: Optional[CandidateSet] = None
    complement: Optional[MoranSystem] = None
    certificate: Optional[ComplementCertificate] = None
    convolution_uniform: Optional[bool] = None
    kolmogorov_distance: Optional[Fraction] = None  # exact bound 1/L


def fuglede_report(system: MoranSystem, n: int) -> FugledeReport:
    """Run the full truncation-level equivalence at level n (unit scales).

    When spectral: canonical spectrum, certified complement, the exact
    convolution identity D_n (+) C_n = {0, ..., L-1}, and the Kolmogorov
    gap 1/L between the discrete uniform on {0..L-1}/B_n and Lebesgue on
    [0, N_1/b_1].  The identity is read from the certificate:
    canonical_complement counts it and raises InvariantError otherwise.
    """
    if any(system.level(k).scale != 1 for k in range(1, n + 1)):
        raise ValueError("fuglede report requires unit scales")
    first = system.level(1)
    interval = (Fraction(0), Fraction(first.count, first.base))
    verdict = truncation_spectral_verdict(system, n)
    if verdict.kind != SPECTRAL:
        return FugledeReport(n, verdict, interval)
    spectrum = canonical_spectrum(system, n)
    complement, cert = canonical_complement(system, n)
    return FugledeReport(n, verdict, interval, spectrum, complement, cert,
                         cert.verified, Fraction(1, cert.length))
