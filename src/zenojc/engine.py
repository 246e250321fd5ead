"""Evolution routes for the measurement-driven protocol.

A run splits the total time T into N intervals; each interval is a free
unitary evolution followed by a projective measurement of the field onto
the state it started in. Three routes compute the resulting atomic
evolution:

    run_zeno_exact    - evolve the composite state and project, N times; since
                        every projection leaves it at (atom) (x) |b><b|, this
                        is a 2x2 Kraus map K = <b|U(dt)|b>, formed once in
                        O(d) from the excitation blocks of U, then N 2x2 steps;
    run_superoperator - exponentiate the second-order generator of a single
                        evolve-and-project step on the atomic space alone,
                        built from the field averages <b|H|b> and <b|H^2|b>;
    run_effective     - the many-measurement limit, a plain unitary evolution
                        under the field-averaged Hamiltonian <b|H|b>.

No route forms the dense composite Hamiltonian: every field average is an
O(d) models.block_field_product. Projections are renormalized and the
success probability of each one is tracked separately, so the product of
the recorded survivals reconstructs the norm of the unnormalized
post-selected branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .hilbert import DensityMatrix, PureState, SpaceLayout, herm_eig
from .models import (
    HamiltonianSet,
    JCParams,
    block_field_product,
    build_hamiltonians,
    jc_propagator_blocks,
)
from .states import (
    AtomicStateSpec,
    FieldStateSpec,
    default_truncation,
    realize_atomic_state,
    realize_field_state,
)

# A projection this unlikely means the post-selected branch is empty;
# continuing would divide by a denormal and produce meaningless statistics.
SURVIVAL_CUTOFF = 1e-14

ROUTE_EXACT = "exact"
ROUTE_SUPEROPERATOR = "superoperator"
ROUTE_EFFECTIVE = "effective"
ROUTES = (ROUTE_EXACT, ROUTE_SUPEROPERATOR, ROUTE_EFFECTIVE)


class SurvivalCutoffError(RuntimeError):
    """A projection succeeded with probability below SURVIVAL_CUTOFF."""

    def __init__(self, survival: float, step_index: int | None = None):
        self.survival = survival
        self.step_index = step_index
        where = f" at step {step_index}" if step_index is not None else ""
        super().__init__(
            f"survival probability {survival:.3e}{where} fell below the cutoff {SURVIVAL_CUTOFF:.0e}"
        )


@dataclass(frozen=True)
class ZenoRunConfig:
    """All physical and numerical parameters of one protocol run.

    truncation = None lets the field state pick its own adequate dimension.
    """

    params: JCParams
    field_spec: FieldStateSpec
    atom_spec: AtomicStateSpec
    total_time: float
    num_measurements: int
    truncation: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.total_time) and self.total_time > 0):
            raise ValueError(f"total_time must be finite and positive, got {self.total_time!r}")
        if not isinstance(self.num_measurements, int) or self.num_measurements < 1:
            raise ValueError(f"num_measurements must be a positive integer, got {self.num_measurements!r}")
        if self.truncation is not None and (not isinstance(self.truncation, int) or self.truncation < 2):
            raise ValueError(f"truncation must be an integer >= 2 or None, got {self.truncation!r}")

    def resolved_truncation(self) -> int:
        if self.truncation is not None:
            return self.truncation
        return default_truncation(self.field_spec)

    def replace_measurements(self, n: int) -> "ZenoRunConfig":
        """Copy of this config with a different measurement count."""
        return replace(self, num_measurements=n)


@dataclass(frozen=True)
class ZenoStep:
    """State of the atomic subsystem after one protocol step."""

    index: int
    time: float
    atom_state: DensityMatrix
    survival: float
    cumulative_survival: float

    def __post_init__(self):
        for name in ("survival", "cumulative_survival"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0 + 1e-12:
                raise ValueError(f"{name} {p!r} outside [0, 1]")


@dataclass(frozen=True, eq=False)
class ZenoTrace:
    """Per-step record of one run, tagged with the route that produced it."""

    route: str
    config: ZenoRunConfig
    truncation: int
    steps: tuple[ZenoStep, ...]

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        if not self.steps:
            raise ValueError("trace must contain at least one step")

    @property
    def final_atom_state(self) -> DensityMatrix:
        return self.steps[-1].atom_state

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.steps])

    def excited_populations(self) -> np.ndarray:
        return np.array([s.atom_state.matrix[0, 0].real for s in self.steps])

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self):
        return f"ZenoTrace(route={self.route!r}, steps={len(self.steps)})"


def _setup(cfg: ZenoRunConfig) -> tuple[PureState, DensityMatrix, HamiltonianSet]:
    b = realize_field_state(cfg.field_spec, cfg.resolved_truncation())
    atom0 = realize_atomic_state(cfg.atom_spec)
    return b, atom0, build_hamiltonians(cfg.params, b)


def step_exact(
    rho: DensityMatrix, u: np.ndarray, b: PureState, layout: SpaceLayout
) -> tuple[DensityMatrix, float]:
    """One free evolution followed by a projection of the field onto b.

    Returns the renormalized post-measurement composite state, which
    factorizes as (atomic state) (x) |b><b|, and the probability that the
    projection succeeded. Raises SurvivalCutoffError when that probability
    falls below SURVIVAL_CUTOFF.
    """
    if rho.dim != layout.composite_dim:
        raise ValueError(f"state dimension {rho.dim} does not match layout {layout.composite_dim}")
    if b.dim != layout.field_dim:
        raise ValueError(f"field state dimension {b.dim} does not match layout {layout.field_dim}")
    if u.shape != (rho.dim, rho.dim):
        raise ValueError(f"propagator shape {u.shape} does not match state dimension {rho.dim}")

    evolved = u @ rho.matrix @ u.conj().T
    r = evolved.reshape(layout.atom_dim, layout.field_dim, layout.atom_dim, layout.field_dim)
    block = np.einsum("imjn,m,n->ij", r, b.amplitudes.conj(), b.amplitudes)
    survival = float(np.trace(block).real)
    if survival < SURVIVAL_CUTOFF:
        raise SurvivalCutoffError(survival)

    return DensityMatrix(np.kron(block / survival, b.projector())), survival


def _projected_steps(step_map, m: np.ndarray, n: int):
    """Yield (k, m, survival) for k = 1 .. n, with m <- step_map(m) / survival.

    The trace of step_map(m) is the step's survival. Rounding drifts Hermiticity
    at the 1e-16 scale per step; m is folded back so long runs stay valid.
    """
    for k in range(1, n + 1):
        m = step_map(m)
        survival = float(np.trace(m).real)
        if survival < SURVIVAL_CUTOFF:
            raise SurvivalCutoffError(survival, step_index=k)
        m = m / survival
        m = 0.5 * (m + m.conj().T)
        yield k, m, survival


def _projected_trace(route: str, cfg: ZenoRunConfig, b: PureState, atom0: DensityMatrix, step_map):
    """Run a constant 2x2 step map N times and record every renormalized step."""
    dt = cfg.total_time / cfg.num_measurements
    steps = []
    cumulative = 1.0
    for k, m, survival in _projected_steps(step_map, atom0.matrix, cfg.num_measurements):
        cumulative *= survival
        steps.append(
            ZenoStep(
                index=k,
                time=k * dt,
                atom_state=DensityMatrix(m),
                survival=survival,
                cumulative_survival=cumulative,
            )
        )
    return ZenoTrace(route=route, config=cfg, truncation=b.dim, steps=tuple(steps))


def run_zeno_exact(cfg: ZenoRunConfig) -> ZenoTrace:
    """Exact protocol: N repetitions of unitary evolution plus projection.

    Each step is the Kraus map rho -> K rho K† / tr(K rho K†) on the atom,
    with K = <b|U(dt)|b> formed once in O(d); step_exact is the same step on
    the composite space.
    """
    b, atom0, _hams = _setup(cfg)
    dt = cfg.total_time / cfg.num_measurements
    _, kraus = block_field_product(jc_propagator_blocks(cfg.params, b.dim, dt), b)
    kraus_dag = kraus.conj().T
    return _projected_trace(ROUTE_EXACT, cfg, b, atom0, lambda m: kraus @ m @ kraus_dag)


def pre_measurement_state(cfg: ZenoRunConfig, step: int | None = None) -> DensityMatrix:
    """Composite state after the free evolution of the given step, before its projection.

    step is 1-based and defaults to the last one. With a pure initial atomic
    state this state is pure, so its atom-field entanglement is well defined.
    """
    n = cfg.num_measurements
    if step is None:
        step = n
    if not 1 <= step <= n:
        raise ValueError(f"step must lie in [1, {n}], got {step}")
    b, atom0, _hams = _setup(cfg)
    w, kraus = block_field_product(jc_propagator_blocks(cfg.params, b.dim, cfg.total_time / n), b)
    kraus_dag = kraus.conj().T
    m = atom0.matrix
    for _, m, _ in _projected_steps(lambda m: kraus @ m @ kraus_dag, m, step - 1):
        pass
    return DensityMatrix(w @ m @ w.conj().T)


def step_generator(h_eff: np.ndarray, h2_eff: np.ndarray, dt: float) -> np.ndarray:
    """4x4 generator of one evolve-and-project step on the flattened atomic state.

    Acts on the row-major flattening of the 2x2 atomic density matrix as

        -i dt [h_eff, .] - (dt^2 / 2) {var, .},   var = h2_eff - h_eff^2,

    whose exponential reproduces the second-order expansion of the exact
    projected step through O(dt^2): the commutator drives the averaged
    unitary motion and the variance anticommutator encodes the survival
    decay. The trace of the propagated matrix is therefore the step's
    survival estimate rather than a conserved quantity.
    """
    eye = np.eye(2, dtype=np.complex128)
    var = h2_eff - h_eff @ h_eff
    commutator = np.kron(h_eff, eye) - np.kron(eye, h_eff.T)
    anticommutator = np.kron(var, eye) + np.kron(eye, var.T)
    return -1j * dt * commutator - 0.5 * dt * dt * anticommutator


def _expm(x: np.ndarray) -> np.ndarray:
    """exp(x) via eigendecomposition, with scaling-and-squaring as the fallback.

    The generator is not anti-Hermitian at finite dt, so the decomposition
    can in principle be defective; an ill-conditioned eigenvector matrix
    routes the computation through scipy's expm instead.
    """
    w, v = np.linalg.eig(x)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e8:
        return scipy.linalg.expm(x)
    return (v * np.exp(w)) @ np.linalg.inv(v)


def run_superoperator(cfg: ZenoRunConfig) -> ZenoTrace:
    """Finite-N route: apply the exponentiated step generator N times.

    The per-step trace loss is reported as that step's survival estimate and
    the state is renormalized before it is recorded, mirroring the exact
    route's bookkeeping.
    """
    b, atom0, hams = _setup(cfg)
    dt = cfg.total_time / cfg.num_measurements
    step_map = _expm(step_generator(hams.effective, hams.squared, dt))
    return _projected_trace(
        ROUTE_SUPEROPERATOR, cfg, b, atom0, lambda m: (step_map @ m.ravel()).reshape(2, 2)
    )


def run_effective(cfg: ZenoRunConfig, samples: int | None = None) -> ZenoTrace:
    """Many-measurement limit: unitary atomic evolution under the field average.

    The trajectory is sampled at `samples` evenly spaced times (defaulting
    to one per measurement so the grid lines up with the other routes); all
    survival probabilities are identically 1 in this limit.
    """
    if samples is None:
        samples = cfg.num_measurements
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    b, atom0, hams = _setup(cfg)
    w, v = herm_eig(hams.effective)
    dt = cfg.total_time / samples

    steps = []
    for j in range(1, samples + 1):
        u = (v * np.exp(-1j * w * (j * dt))) @ v.conj().T
        m = u @ atom0.matrix @ u.conj().T
        steps.append(
            ZenoStep(
                index=j,
                time=j * dt,
                atom_state=DensityMatrix(m),
                survival=1.0,
                cumulative_survival=1.0,
            )
        )
    return ZenoTrace(route=ROUTE_EFFECTIVE, config=cfg, truncation=b.dim, steps=tuple(steps))


def run_route(cfg: ZenoRunConfig, route: str) -> ZenoTrace:
    """Dispatch a run by route name."""
    if route == ROUTE_EXACT:
        return run_zeno_exact(cfg)
    if route == ROUTE_SUPEROPERATOR:
        return run_superoperator(cfg)
    if route == ROUTE_EFFECTIVE:
        return run_effective(cfg)
    raise ValueError(f"unknown route {route!r}")


def survival_probability(trace: ZenoTrace) -> float:
    """Probability that every projection of a protocol run succeeded."""
    return trace.steps[-1].cumulative_survival
