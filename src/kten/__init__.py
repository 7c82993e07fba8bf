"""Numerical toolkit for homogeneous inelastic and multi-species collision
dynamics: exact collision kinematics, singular hyperplane collision kernels,
cancellation-lemma integrals, spreading-iteration lower-bound envelopes, a
DSMC particle simulator, and empirical tail measurement."""

__version__ = "0.1.0"

from .density import DensityField
from .geometry import MassPair, RestitutionParams
from .kernels import KernelSpec
from .spreading import Envelope, SpreadingConfig

__all__ = [
    "__version__",
    "DensityField",
    "Envelope",
    "KernelSpec",
    "MassPair",
    "RestitutionParams",
    "SpreadingConfig",
]
