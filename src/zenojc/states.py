"""Field and atomic state construction on the truncated Fock space."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .hilbert import DensityMatrix, PureState

# A coherent state whose discarded Fock tail carries more weight than this
# is rejected: the truncation is too small for the requested amplitude.
COHERENT_DEFECT_TOL = 1e-8

MIN_FIELD_DIM = 16


@dataclass(frozen=True)
class FockField:
    """Number state |n>."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"Fock index must be a nonnegative integer, got {self.n!r}")


@dataclass(frozen=True)
class CoherentField:
    """Coherent state |alpha>, mean photon number |alpha|^2."""

    alpha: complex

    def __post_init__(self):
        alpha = complex(self.alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValueError(f"coherent amplitude must be finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class SuperposedFockField:
    """cos(theta)|n> + e^{i phi} sin(theta)|n+1>.

    theta and phi are unrestricted; the physics is periodic in both.
    """

    n: int
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"Fock index must be a nonnegative integer, got {self.n!r}")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("superposition angles must be finite")


FieldStateSpec = Union[FockField, CoherentField, SuperposedFockField]


@dataclass(frozen=True)
class AtomGround:
    """Atomic ground state |g>."""


@dataclass(frozen=True)
class AtomExcited:
    """Atomic excited state |e>."""


@dataclass(frozen=True)
class BlochVector:
    """Pure atomic state at the given Bloch-sphere angles.

    polar = 0 is the excited pole, polar = pi the ground pole.
    """

    polar: float
    azimuth: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.polar) and math.isfinite(self.azimuth)):
            raise ValueError("Bloch angles must be finite")


AtomicStateSpec = Union[AtomGround, AtomExcited, BlochVector]


def default_truncation(spec: FieldStateSpec) -> int:
    """Truncation dimension adequate for the requested field state.

    For coherent amplitudes the Poisson tail bound |alpha|^2 + 8|alpha| + 10
    keeps the discarded weight below COHERENT_DEFECT_TOL up to |alpha| = 4.
    """
    if isinstance(spec, CoherentField):
        r = abs(spec.alpha)
        return max(MIN_FIELD_DIM, math.ceil(r * r + 8.0 * r + 10.0))
    if isinstance(spec, FockField):
        return max(MIN_FIELD_DIM, spec.n + 2)
    if isinstance(spec, SuperposedFockField):
        return max(MIN_FIELD_DIM, spec.n + 3)
    raise TypeError(f"unknown field state spec {spec!r}")


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    # c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!), but e^{-|alpha|^2/2} is 0.0
    # past |alpha| ~ 38.6. Only the Poisson peak n0 comes from the logarithm,
    # whose rounding grows like |alpha|^2 eps; the other levels follow from it
    # by the ratios c_n / c_{n-1} = alpha / sqrt(n).
    r = abs(alpha)
    n0 = min(int(r * r), dim - 1)
    root_n = np.sqrt(np.arange(dim, dtype=np.float64))
    c = np.empty(dim, dtype=np.complex128)
    log_peak = -0.5 * r * r + (n0 * math.log(r) if n0 else 0.0) - 0.5 * math.lgamma(n0 + 1.0)
    c[n0] = cmath.exp(log_peak + 1j * n0 * cmath.phase(alpha))
    c[n0 + 1:] = c[n0] * np.cumprod(alpha / root_n[n0 + 1:])
    c[:n0] = c[n0] * np.cumprod(root_n[n0:0:-1] / alpha)[::-1]
    return c


def coherent_truncation_defect(alpha: complex, dim: int) -> float:
    """Probability weight lost to the discarded levels: 1 - sum_{n<dim} |c_n|^2."""
    if dim < 1:
        raise ValueError(f"truncation dimension must be positive, got {dim}")
    c = _coherent_amplitudes(complex(alpha), dim)
    return max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))


def realize_field_state(spec: FieldStateSpec, dim: int) -> PureState:
    """Materialize a field state as a normalized vector of the given dimension.

    Coherent states are renormalized after truncation so that projecting
    onto them stays an exact projection on the truncated space; the call
    fails if the discarded weight exceeds COHERENT_DEFECT_TOL.
    """
    if dim < 2:
        raise ValueError(f"truncation dimension must be at least 2, got {dim}")
    if isinstance(spec, FockField):
        if spec.n >= dim:
            raise ValueError(f"Fock index {spec.n} needs truncation dimension > {spec.n}, got {dim}")
        amp = np.zeros(dim, dtype=np.complex128)
        amp[spec.n] = 1.0
        return PureState(amp)
    if isinstance(spec, SuperposedFockField):
        if spec.n + 1 >= dim:
            raise ValueError(
                f"superposition on |{spec.n}>, |{spec.n + 1}> needs truncation dimension > {spec.n + 1}, got {dim}"
            )
        amp = np.zeros(dim, dtype=np.complex128)
        amp[spec.n] = math.cos(spec.theta)
        amp[spec.n + 1] = math.sin(spec.theta) * complex(math.cos(spec.phi), math.sin(spec.phi))
        return PureState(amp)
    if isinstance(spec, CoherentField):
        c = _coherent_amplitudes(spec.alpha, dim)
        defect = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
        if defect > COHERENT_DEFECT_TOL:
            raise ValueError(
                f"coherent truncation defect {defect:.3e} exceeds {COHERENT_DEFECT_TOL:.0e}; "
                f"increase the truncation dimension for alpha = {spec.alpha}"
            )
        return PureState(c / np.linalg.norm(c))
    raise TypeError(f"unknown field state spec {spec!r}")


def atomic_ket(spec: AtomicStateSpec) -> np.ndarray:
    """Two-component amplitude vector in the (excited, ground) basis."""
    if isinstance(spec, AtomExcited):
        return np.array([1.0, 0.0], dtype=np.complex128)
    if isinstance(spec, AtomGround):
        return np.array([0.0, 1.0], dtype=np.complex128)
    if isinstance(spec, BlochVector):
        half = 0.5 * spec.polar
        phase = complex(math.cos(spec.azimuth), math.sin(spec.azimuth))
        return np.array([math.cos(half), phase * math.sin(half)], dtype=np.complex128)
    raise TypeError(f"unknown atomic state spec {spec!r}")


def realize_atomic_state(spec: AtomicStateSpec) -> DensityMatrix:
    """Pure 2x2 atomic density matrix in the (excited, ground) basis."""
    ket = atomic_ket(spec)
    return DensityMatrix(np.outer(ket, ket.conj()))


def field_ladder_operators(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation operators on the truncated Fock space.

    a|n> = sqrt(n)|n-1> and a†|n> = sqrt(n+1)|n+1> hold for n+1 < dim; the
    matrix element raising |dim-1> out of the kept space is dropped, which
    shows up as [a, a†] = I except entry (dim-1, dim-1) = 1 - dim.
    """
    if dim < 2:
        raise ValueError(f"truncation dimension must be at least 2, got {dim}")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), 1).astype(np.complex128)
    return a, a.conj().T
