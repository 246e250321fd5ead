"""Dense complex linear algebra on finite-dimensional Hilbert spaces.

Everything in this module is a pure function of its inputs; the value
types freeze their storage on construction, so instances can be shared
between threads or processes without copying.

Conventions (hbar = 1 throughout):
    * the atom is factor one, the field factor two, so a composite basis
      index is k = atom_index * field_dim + fock_index,
    * the atomic basis is ordered (excited, ground).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Shared tolerances; the acceptance suite references these by name.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12

ATOM_DIM = 2

# Bounds the dense composite reference (build_jc_hamiltonian and the checks
# built on it); the run paths work on excitation blocks and never reach it.
_MAX_DIM = 1 << 14


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array, raising ValueError otherwise."""
    out = np.asarray(m, dtype=np.complex128)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its own adjoint."""
    return float(np.abs(m - m.conj().T).max())


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector; norm is validated to NORM_TOL on construction."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if amp.size == 0:
            raise ValueError("state vector must be nonempty")
        if not np.isfinite(amp).all():
            raise ValueError("state vector contains non-finite amplitudes")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        """Rank-one projector |psi><psi| as a plain array."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.projector())

    def __repr__(self):
        return f"PureState(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator.

    Construction validates all three properties (HERM_TOL, TRACE_TOL,
    PSD_TOL) and freezes the storage.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        defect = hermiticity_defect(m)
        if defect > HERM_TOL:
            raise ValueError(f"density matrix is not Hermitian (defect {defect:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        lowest = float(np.linalg.eigvalsh(m)[0])
        if lowest < -PSD_TOL:
            raise ValueError(f"density matrix has eigenvalue {lowest:.3e} below -{PSD_TOL}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SpaceLayout:
    """Index bookkeeping for the atom (x) field composite space.

    The composite basis index is k = atom_index * field_dim + fock_index,
    i.e. the atom is the first Kronecker factor everywhere.
    """

    field_dim: int
    atom_dim: int = ATOM_DIM

    def __post_init__(self):
        if self.atom_dim != ATOM_DIM:
            raise ValueError(f"atom_dim must be {ATOM_DIM}, got {self.atom_dim}")
        if self.field_dim < 2:
            raise ValueError(f"field_dim must be at least 2, got {self.field_dim}")

    @property
    def composite_dim(self) -> int:
        return self.atom_dim * self.field_dim


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the first argument as the leading factor."""
    a = as_complex_matrix(a, "first factor")
    b = as_complex_matrix(b, "second factor")
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > _MAX_DIM or cols > _MAX_DIM:
        raise ValueError(f"composite shape ({rows}, {cols}) exceeds the supported size {_MAX_DIM}")
    return np.kron(a, b)


def partial_trace_field(rho: DensityMatrix, layout: SpaceLayout) -> DensityMatrix:
    """Trace out the field factor, leaving the atomic state.

    For a product state rho_atom (x) rho_field this recovers rho_atom
    exactly; the trace is preserved in general.
    """
    if rho.dim != layout.composite_dim:
        raise ValueError(
            f"state dimension {rho.dim} does not match composite dimension {layout.composite_dim}"
        )
    r = rho.matrix.reshape(layout.atom_dim, layout.field_dim, layout.atom_dim, layout.field_dim)
    return DensityMatrix(np.einsum("imjm->ij", r))


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition h = V diag(w) V† with real ascending eigenvalues.

    Raises ValueError if h is not Hermitian to HERM_TOL.
    """
    h = as_complex_matrix(h, "operator")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"operator must be square, got shape {h.shape}")
    defect = hermiticity_defect(h)
    if defect > HERM_TOL:
        raise ValueError(f"operator is not Hermitian (defect {defect:.3e} > {HERM_TOL})")
    return np.linalg.eigh(h)


def unitary_from_hamiltonian(h, t: float) -> np.ndarray:
    """Propagator exp(-i h t) of a Hermitian generator.

    Built from the eigendecomposition so the result is unitary at machine
    precision for any finite t, positive or negative.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T
