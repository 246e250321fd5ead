"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the code paths it is used to verify:
propagation goes through scipy's Pade expm instead of the eigendecomposition
or closed-form block routes, the exact protocol runs on the full composite
space with a Hamiltonian written entry by entry, partial traces are explicit
index loops instead of reshapes, and the two-level results are closed forms.
"""

import math

import numpy as np
import scipy.linalg

from zenojc import AtomGround, CoherentField, JCParams, ZenoRunConfig


def expm_propagate(h: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """Evolve a density matrix with scipy's scaling-and-squaring exponential."""
    u = scipy.linalg.expm(-1j * h * t)
    return u @ rho @ u.conj().T


def loop_partial_trace_field(m: np.ndarray, field_dim: int) -> np.ndarray:
    """Explicit index contraction over the field factor (atom-major layout)."""
    out = np.zeros((2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            for k in range(field_dim):
                out[i, j] += m[i * field_dim + k, j * field_dim + k]
    return out


def jc_hamiltonian_entries(params: JCParams, field_dim: int) -> np.ndarray:
    """Composite JC Hamiltonian written entry by entry (atom-major, excited first)."""
    d = field_dim
    h = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    for n in range(d):
        h[n, n] = 0.5 * params.omega_a + params.omega * n
        h[d + n, d + n] = -0.5 * params.omega_a + params.omega * n
    for n in range(d - 1):
        h[n, d + n + 1] = h[d + n + 1, n] = params.g * math.sqrt(n + 1)
    return h


def dense_exact_route(
    params: JCParams, b: np.ndarray, atom0: np.ndarray, total_time: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The exact protocol on the composite space: every step evolves with scipy's
    expm of the composite Hamiltonian, then projects explicitly with I (x) |b><b|.

    Returns the atomic state after each step, shape (n, 2, 2), and the
    cumulative survival after each step.
    """
    d = b.size
    u = scipy.linalg.expm(-1j * jc_hamiltonian_entries(params, d) * (total_time / n))
    field = np.outer(b, b.conj())
    projector = np.kron(np.eye(2), field)
    rho = np.kron(atom0, field)
    states, cumulative = [], []
    product = 1.0
    for _ in range(n):
        rho = projector @ u @ rho @ u.conj().T @ projector
        survival = np.trace(rho).real
        rho = rho / survival
        product *= survival
        states.append(loop_partial_trace_field(rho, d))
        cumulative.append(product)
    return np.array(states), np.array(cumulative)


def herm_eig_2x2(block: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix by the quadratic formula, ascending."""
    a = block[0, 0].real
    d = block[1, 1].real
    b = block[0, 1]
    mean = 0.5 * (a + d)
    radius = math.sqrt((0.5 * (a - d)) ** 2 + abs(b) ** 2)
    return mean - radius, mean + radius


def excitation_block(params: JCParams, n: int) -> np.ndarray:
    """2x2 block of the coupled Hamiltonian on {|e, n>, |g, n+1>}."""
    return np.array(
        [
            [0.5 * params.omega_a + params.omega * n, params.g * math.sqrt(n + 1)],
            [params.g * math.sqrt(n + 1), -0.5 * params.omega_a + params.omega * (n + 1)],
        ],
        dtype=np.complex128,
    )


def resonant_survival(g: float, n: int, t: float) -> float:
    """Single-step survival for atom |e>, field |n>, on resonance."""
    return math.cos(g * math.sqrt(n + 1) * t) ** 2


def driven_excited_population(omega_a: float, drive: complex, t: float) -> float:
    """P_e(t) for a two-level atom starting in |g> under
    H = (omega_a/2) sigma_z + drive sigma_+ + conj(drive) sigma_-."""
    rabi = math.sqrt((0.5 * omega_a) ** 2 + abs(drive) ** 2)
    if rabi == 0.0:
        return 0.0
    return (abs(drive) / rabi) ** 2 * math.sin(rabi * t) ** 2


def coherent_mean_photon_direct(alpha: complex, dim: int) -> float:
    """Mean photon number of the truncated, renormalized coherent state,
    by direct summation of the factorial formula."""
    weights = [abs(alpha) ** (2 * k) * math.exp(-abs(alpha) ** 2) / math.factorial(k) for k in range(dim)]
    total = sum(weights)
    return sum(k * w for k, w in enumerate(weights)) / total


def resonant_coherent_config(n_measurements: int, total_time: float = 5.0) -> ZenoRunConfig:
    """The reference configuration used throughout the convergence tests."""
    return ZenoRunConfig(
        params=JCParams(omega_a=1.0, omega=1.0, g=0.1),
        field_spec=CoherentField(1.0),
        atom_spec=AtomGround(),
        total_time=total_time,
        num_measurements=n_measurements,
    )
