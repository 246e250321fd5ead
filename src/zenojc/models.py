"""Jaynes-Cummings Hamiltonians: excitation blocks, closed-form propagator, field-averaged reduction.

The composite Hamiltonian (rotating-wave form, hbar = 1) is

    H = (omega_a / 2) sigma_z (x) I  +  omega I (x) a†a  +  g (sigma_+ (x) a + sigma_- (x) a†)

in the (excited, ground) atomic basis. Run paths use only its 2x2 excitation
blocks, reduced onto a field state |B> in O(d) by block_field_product; the
dense build_jc_hamiltonian is the reference. Averaging H over |B> gives the
2x2 generator of the measurement-frozen atomic evolution. The
identity-proportional field-energy terms (omega |alpha|^2 and the like) are
kept in that reduction: they commute out of the atomic evolution, so
retaining them preserves the exact identity  effective = <B|H|B>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    HERM_TOL,
    PureState,
    SpaceLayout,
    _freeze,
    as_complex_matrix,
    hermiticity_defect,
    tensor_product,
)
from .states import field_ladder_operators


def sigma_z() -> np.ndarray:
    """diag(+1, -1): excited state at +1."""
    return np.diag([1.0 + 0j, -1.0 + 0j])


def sigma_plus() -> np.ndarray:
    """Raising operator |e><g|."""
    return np.array([[0, 1], [0, 0]], dtype=np.complex128)


def sigma_minus() -> np.ndarray:
    """Lowering operator |g><e|."""
    return np.array([[0, 0], [1, 0]], dtype=np.complex128)


@dataclass(frozen=True)
class JCParams:
    """Atomic transition frequency, field mode frequency, and coupling (hbar = 1)."""

    omega_a: float
    omega: float
    g: float

    def __post_init__(self):
        for name in ("omega_a", "omega", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.g < 0:
            raise ValueError(f"coupling g must be nonnegative, got {self.g!r}")


def build_jc_hamiltonian(params: JCParams, field_dim: int) -> np.ndarray:
    """Composite Hamiltonian on the 2 * field_dim space.

    Block-diagonal in the total excitation number: each pair
    {|e, n>, |g, n+1>} is closed under it, with coupling entry g sqrt(n+1).
    """
    a, a_dag = field_ladder_operators(field_dim)
    eye_f = np.eye(field_dim, dtype=np.complex128)
    eye_a = np.eye(2, dtype=np.complex128)
    return (
        0.5 * params.omega_a * tensor_product(sigma_z(), eye_f)
        + params.omega * tensor_product(eye_a, a_dag @ a)
        + params.g * (tensor_product(sigma_plus(), a) + tensor_product(sigma_minus(), a_dag))
    )


def jc_hamiltonian_blocks(params: JCParams, field_dim: int) -> tuple[np.ndarray, complex, complex]:
    """build_jc_hamiltonian(params, field_dim) in the (blocks, vacuum, top) layout of
    jc_propagator_blocks: blocks[n] is H on {|e, n>, |g, n+1>}, vacuum and top
    the energies of |g, 0> and |e, field_dim - 1>.
    """
    n = np.arange(field_dim - 1)
    blocks = np.empty((field_dim - 1, 2, 2), dtype=np.complex128)
    blocks[:, 0, 0] = 0.5 * params.omega_a + params.omega * n
    blocks[:, 1, 1] = -0.5 * params.omega_a + params.omega * (n + 1)
    blocks[:, 0, 1] = blocks[:, 1, 0] = params.g * np.sqrt(n + 1.0)
    vacuum = complex(-0.5 * params.omega_a)
    top = complex(0.5 * params.omega_a + params.omega * (field_dim - 1))
    return blocks, vacuum, top


def jc_propagator_blocks(
    params: JCParams, field_dim: int, t: float
) -> tuple[np.ndarray, complex, complex]:
    """exp(-i H t) of build_jc_hamiltonian(params, field_dim), in closed form and O(field_dim).

    Returns (blocks, vacuum, top):
        blocks[n]  the 2x2 propagator on {|e, n>, |g, n+1>}, n = 0 .. field_dim - 2;
        vacuum     the phase picked up by the uncoupled level |g, 0>;
        top        the phase of |e, field_dim - 1>, whose partner the truncation removed.

    Block n is omega (n + 1/2) I + A_n with A_n = (delta/2) sigma_z + g sqrt(n+1) sigma_x
    and delta = omega_a - omega. Since A_n^2 = Omega_n^2 I with
    Omega_n = sqrt((delta/2)^2 + g^2 (n+1)), its propagator is

        e^{-i omega (n + 1/2) t} [cos(Omega_n t) I - i (sin(Omega_n t) / Omega_n) A_n].
    """
    if not isinstance(field_dim, (int, np.integer)) or field_dim < 2:
        raise ValueError(f"field_dim must be an integer >= 2, got {field_dim!r}")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    n = np.arange(field_dim - 1)
    half_detuning = 0.5 * (params.omega_a - params.omega)
    coupling = params.g * np.sqrt(n + 1.0)
    rabi = np.hypot(half_detuning, coupling)
    cos = np.cos(rabi * t)
    # sin(Omega t) / Omega; np.sinc(0) = 1 supplies its Omega -> 0 limit, t
    sin_over_rabi = t * np.sinc(rabi * t / math.pi)
    phase = np.exp(-1j * params.omega * (n + 0.5) * t)

    blocks = np.empty((field_dim - 1, 2, 2), dtype=np.complex128)
    blocks[:, 0, 0] = phase * (cos - 1j * half_detuning * sin_over_rabi)
    blocks[:, 1, 1] = phase * (cos + 1j * half_detuning * sin_over_rabi)
    blocks[:, 0, 1] = blocks[:, 1, 0] = -1j * phase * coupling * sin_over_rabi
    vacuum = complex(np.exp(0.5j * params.omega_a * t))
    top = complex(np.exp(-1j * (0.5 * params.omega_a + params.omega * (field_dim - 1)) * t))
    return blocks, vacuum, top


def block_field_product(operator: tuple, b: PureState) -> tuple[np.ndarray, np.ndarray]:
    """X (I (x) |b>) and <b| X |b> for an operator X given as (blocks, vacuum, top).

    Returns the 2d x 2 matrix whose column j is the composite ket X|j, b>, and
    the 2x2 atomic operator <i, b| X |j, b>, in O(d): |e, n> couples only to
    |g, n+1>, and |g, 0> and |e, d-1> only pick up a factor.
    """
    blocks, vacuum, top = operator
    amp = b.amplitudes
    w = np.zeros((2, b.dim, 2), dtype=np.complex128)  # [atom, fock, column]
    w[0, :-1, 0] = blocks[:, 0, 0] * amp[:-1]
    w[0, -1, 0] = top * amp[-1]
    w[1, 1:, 0] = blocks[:, 1, 0] * amp[:-1]
    w[0, :-1, 1] = blocks[:, 0, 1] * amp[1:]
    w[1, 0, 1] = vacuum * amp[0]
    w[1, 1:, 1] = blocks[:, 1, 1] * amp[1:]
    return w.reshape(2 * b.dim, 2), np.einsum("imj,m->ij", w, amp.conj())


def effective_hamiltonian(full_h, b: PureState, layout: SpaceLayout) -> np.ndarray:
    """Average the composite operator over the field state: entries <i|<B| H |j>|B>.

    Returns the 2x2 atomic operator. Hermitian whenever full_h is.
    """
    h = as_complex_matrix(full_h, "composite operator")
    if h.shape != (layout.composite_dim, layout.composite_dim):
        raise ValueError(
            f"composite operator shape {h.shape} does not match layout dimension {layout.composite_dim}"
        )
    if b.dim != layout.field_dim:
        raise ValueError(f"field state dimension {b.dim} does not match layout field_dim {layout.field_dim}")
    r = h.reshape(layout.atom_dim, layout.field_dim, layout.atom_dim, layout.field_dim)
    return np.einsum("imjn,m,n->ij", r, b.amplitudes.conj(), b.amplitudes)


@dataclass(frozen=True, eq=False)
class HamiltonianSet:
    """Field averages <b|H|b> and <b|H^2|b> of the JC Hamiltonian, and the field state b.

    Construction checks both are 2x2 and Hermitian and freezes them. squared is
    a Gram matrix whose rounding grows with its entries (up to <H>^2), so its
    Hermiticity is held to HERM_TOL relative to its largest entry.
    """

    effective: np.ndarray
    squared: np.ndarray
    b_state: PureState

    def __post_init__(self):
        for name in ("effective", "squared"):
            m = as_complex_matrix(getattr(self, name), f"{name} Hamiltonian")
            if m.shape != (2, 2):
                raise ValueError(f"{name} Hamiltonian must be 2x2, got shape {m.shape}")
            scale = 1.0 if name == "effective" else max(1.0, float(np.abs(m).max()))
            defect = hermiticity_defect(m)
            if defect > HERM_TOL * scale:
                raise ValueError(f"{name} Hamiltonian is not Hermitian (defect {defect:.3e})")
            object.__setattr__(self, name, _freeze(m))


def build_hamiltonians(params: JCParams, b: PureState) -> HamiltonianSet:
    """Reduce H onto the field state b in O(d): <i, b| H^2 |j, b> = (H|i, b>)† (H|j, b>)."""
    hb, effective = block_field_product(jc_hamiltonian_blocks(params, b.dim), b)
    return HamiltonianSet(effective=effective, squared=hb.conj().T @ hb, b_state=b)
