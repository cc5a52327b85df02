"""Thermodynamics of Casimir-type free energies from scattering data.

Subpackages
-----------
numkernel
    Quadrature, root finding, thermal weight functions, asymptotic fits.
spectral
    Channel abstraction, defining free-energy/entropy integrals, the
    part records behind each model's ``PARTS`` table and heat-kernel
    coefficient extraction.
plasma_sheet
    Thin plasma sheet model (TE/TM phase shifts, surface plasmon,
    spectral sum rules, entropy sign diagnostics).
slab
    Plasma slab model (surface and thickness-dependent scattering parts,
    exponential-tail part, slab plasmon dispersion).
"""

from . import numkernel, plasma_sheet, slab, spectral

__version__ = "0.1.0"

__all__ = ["numkernel", "spectral", "plasma_sheet", "slab", "__version__"]
