"""Non-reciprocal light transmission in ring resonators with chiral emitters.

A waveguide side-coupled to an axisymmetric resonator hosting a
helicity-sensitive three-level emitter transmits light asymmetrically:
the two propagation directions address the emitter with opposite optical
helicity, and a magnetic splitting of the excited states turns that
difference into an isolator-like response.

The package provides the local helicity analysis of resonator mode
fields (:mod:`ringqed.helicity`), the linear steady-state transmission
model (:mod:`ringqed.model`), closed-form design conditions and
polariton spectra (:mod:`ringqed.analytic`), an independent
density-matrix cross-check (:mod:`ringqed.oracle`), design optimization
on the zero-backward-transmission manifold (:mod:`ringqed.optimize`),
and a JSON-configured command line (:mod:`ringqed.cli`).

The package namespace holds only the names the README uses without a
module prefix; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .analytic import optimal_coupling, polariton_eigenvalues
from .model import DriveSpec, SystemParams, spectrum
from .optimize import maximize_contrast

__all__ = [
    "__version__",
    "DriveSpec",
    "SystemParams",
    "maximize_contrast",
    "optimal_coupling",
    "polariton_eigenvalues",
    "spectrum",
]
