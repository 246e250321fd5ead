import math

import numpy as np
import pytest

from zenojc import (
    CoherentField,
    FockField,
    HamiltonianSet,
    JCParams,
    SpaceLayout,
    SuperposedFockField,
    build_hamiltonians,
    build_jc_hamiltonian,
    default_truncation,
    effective_hamiltonian,
    hermiticity_defect,
    jc_hamiltonian_blocks,
    jc_propagator_blocks,
    realize_field_state,
    unitary_from_hamiltonian,
)
from zenojc.models import sigma_z

from oracles import excitation_block, herm_eig_2x2, jc_hamiltonian_entries


PARAMS = JCParams(omega_a=1.0, omega=1.0, g=0.1)


def effective_for(spec, params=PARAMS, dim=None):
    dim = dim if dim is not None else default_truncation(spec)
    b = realize_field_state(spec, dim)
    return build_hamiltonians(params, b).effective


class TestCompositeHamiltonian:
    def test_decoupled_limit_is_diagonal(self):
        params = JCParams(omega_a=0.8, omega=1.2, g=0.0)
        h = build_jc_hamiltonian(params, 4)
        expected = np.diag(
            [0.4 + 1.2 * n for n in range(4)] + [-0.4 + 1.2 * n for n in range(4)]
        ).astype(complex)
        assert np.abs(h - expected).max() < 1e-15

    def test_coupling_entry_is_g_root_n_plus_one(self):
        d = 6
        h = build_jc_hamiltonian(PARAMS, d)
        for n in range(d - 1):
            row = 0 * d + n        # |e, n>
            col = 1 * d + (n + 1)  # |g, n+1>
            assert h[row, col] == pytest.approx(PARAMS.g * math.sqrt(n + 1), abs=1e-15)

    def test_hermitian(self):
        assert hermiticity_defect(build_jc_hamiltonian(PARAMS, 12)) == 0.0

    def test_excitation_blocks_closed(self):
        # each {|e,n>, |g,n+1>} pair is invariant: entries leaving it vanish
        d = 5
        h = build_jc_hamiltonian(PARAMS, d)
        for n in range(d - 1):
            idx = [0 * d + n, 1 * d + n + 1]
            rest = [k for k in range(2 * d) if k not in idx]
            assert np.abs(h[np.ix_(idx, rest)]).max() == 0.0

    def test_resonant_manifold_eigenvalues(self):
        # omega(n + 1/2) +/- g sqrt(n+1), checked against the 2x2 block oracle
        d = 6
        h = build_jc_hamiltonian(PARAMS, d)
        w = np.linalg.eigvalsh(h)
        for n in range(d - 1):
            lo, hi = herm_eig_2x2(excitation_block(PARAMS, n))
            center = PARAMS.omega * (n + 0.5)
            split = PARAMS.g * math.sqrt(n + 1)
            assert lo == pytest.approx(center - split, abs=1e-12)
            assert hi == pytest.approx(center + split, abs=1e-12)
            assert np.abs(w - lo).min() < 1e-10
            assert np.abs(w - hi).min() < 1e-10

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            JCParams(omega_a=1.0, omega=1.0, g=-0.1)

    def test_non_finite_frequency_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            JCParams(omega_a=math.nan, omega=1.0, g=0.1)


def assemble_blocks(blocks, vacuum, top):
    """Dense composite matrix from the excitation blocks and the two edge levels."""
    d = blocks.shape[0] + 1
    u = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    for n in range(d - 1):
        idx = [0 * d + n, 1 * d + n + 1]  # |e, n>, |g, n+1>
        u[np.ix_(idx, idx)] = blocks[n]
    u[1 * d + 0, 1 * d + 0] = vacuum   # |g, 0>
    u[0 * d + d - 1, 0 * d + d - 1] = top  # |e, d-1>
    return u


class TestPropagatorBlocks:
    @pytest.mark.parametrize("dim", (2, 12))
    @pytest.mark.parametrize(
        "params",
        (
            JCParams(omega_a=1.0, omega=1.0, g=0.1),
            JCParams(omega_a=1.3, omega=0.8, g=0.2),
            JCParams(omega_a=1.3, omega=0.8, g=0.0),
            JCParams(omega_a=0.9, omega=0.9, g=0.0),
        ),
        ids=("resonant", "detuned", "g0-detuned", "g0-resonant"),
    )
    def test_matches_dense_propagator(self, params, dim):
        h = build_jc_hamiltonian(params, dim)
        # |t| stays small: the dense eigendecomposition's own error grows with
        # |t| ||H|| and reaches 1e-14 near |t| = 2 at dim = 12
        for t in (0.0, 0.6, -0.8):
            blocks, vacuum, top = jc_propagator_blocks(params, dim, t)
            dense = unitary_from_hamiltonian(h, t)
            assert np.abs(assemble_blocks(blocks, vacuum, top) - dense).max() < 1e-14
            # the truncation-edge levels are uncoupled and only pick up their energy phase
            assert vacuum == pytest.approx(np.exp(0.5j * params.omega_a * t), abs=1e-15)
            assert top == pytest.approx(
                np.exp(-1j * (0.5 * params.omega_a + params.omega * (dim - 1)) * t), abs=1e-15
            )

    def test_rejects_bad_dimension_and_time(self):
        with pytest.raises(ValueError, match="field_dim"):
            jc_propagator_blocks(PARAMS, 1, 0.5)
        with pytest.raises(ValueError, match="time"):
            jc_propagator_blocks(PARAMS, 4, float("nan"))


class TestEffectiveHamiltonian:
    def test_fock_field_decouples_levels(self):
        for n in (0, 1, 5):
            eff = effective_for(FockField(n))
            expected = 0.5 * PARAMS.omega_a * sigma_z() + PARAMS.omega * n * np.eye(2)
            assert eff[0, 1] == 0.0 and eff[1, 0] == 0.0
            assert np.abs(eff - expected).max() < 1e-12

    def test_coherent_field_gives_amplitude_coupling(self):
        for alpha in (0.5, 2.0, 1.0 + 1.0j):
            eff = effective_for(CoherentField(alpha))
            expected = (
                0.5 * PARAMS.omega_a * sigma_z()
                + PARAMS.omega * abs(alpha) ** 2 * np.eye(2)
                + PARAMS.g * np.array([[0, alpha], [np.conj(alpha), 0]])
            )
            assert np.abs(eff - expected).max() < 1e-8
            assert abs(eff[0, 1] - PARAMS.g * alpha) < 1e-8

    def test_superposed_field_coupling_is_exact(self):
        for n, theta, phi in ((0, 0.4, 0.0), (2, 1.0, 2.2), (4, 0.785, -1.1)):
            eff = effective_for(SuperposedFockField(n, theta=theta, phi=phi))
            expected = (
                PARAMS.g * math.cos(theta) * math.sin(theta) * math.sqrt(n + 1) * np.exp(1j * phi)
            )
            assert abs(eff[0, 1] - expected) < 1e-12
            assert abs(eff[1, 0] - np.conj(expected)) < 1e-12

    def test_theta_zero_reduces_to_fock(self):
        eff = effective_for(SuperposedFockField(3, theta=0.0))
        fock = effective_for(FockField(3))
        assert eff[0, 1] == 0.0
        assert np.abs(eff - fock).max() < 1e-12

    def test_superposed_energy_term_retained(self):
        # field energy omega (n + sin^2 theta) rides on the identity
        n, theta = 2, 0.6
        eff = effective_for(SuperposedFockField(n, theta=theta))
        energy = 0.5 * (eff[0, 0].real + eff[1, 1].real)
        assert energy == pytest.approx(PARAMS.omega * (n + math.sin(theta) ** 2), abs=1e-12)

    def test_constant_shift_leaves_evolution_unchanged(self):
        eff = effective_for(CoherentField(1.0))
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        t = 5.0
        u0 = unitary_from_hamiltonian(eff, t)
        base = u0 @ rho0 @ u0.conj().T
        for shift in (-2.0, 0.3, 17.0):
            u1 = unitary_from_hamiltonian(eff + shift * np.eye(2), t)
            shifted = u1 @ rho0 @ u1.conj().T
            assert np.abs(base - shifted).max() < 1e-12

    def test_coupling_magnitude_peaks_at_quarter_pi(self):
        thetas = np.linspace(0.0, math.pi / 2, 21)
        mags = [abs(effective_for(SuperposedFockField(1, theta=float(t)))[0, 1]) for t in thetas]
        assert int(np.argmax(mags)) == 10  # theta = pi/4
        assert mags[0] == 0.0 and mags[-1] < 1e-15

    def test_truncation_convergence(self):
        for alpha in (1.0, 1.0 + 1.0j):
            spec = CoherentField(alpha)
            dim = default_truncation(spec)
            assert np.abs(effective_for(spec, dim=dim) - effective_for(spec, dim=2 * dim)).max() < 1e-9

    def test_dimension_mismatch_rejected(self):
        b = realize_field_state(FockField(0), 4)
        with pytest.raises(ValueError, match="does not match"):
            effective_hamiltonian(np.eye(6), b, SpaceLayout(field_dim=4))


BLOCK_PARAMS = (
    JCParams(omega_a=1.0, omega=1.0, g=0.15),
    JCParams(omega_a=1.07, omega=0.95, g=0.15),
    JCParams(omega_a=1.3, omega=0.8, g=0.0),
)
BLOCK_PARAM_IDS = ("resonant", "detuned", "g0")


class TestHamiltonianBlocks:
    @pytest.mark.parametrize("dim", (2, 6, 12))
    @pytest.mark.parametrize("params", BLOCK_PARAMS, ids=BLOCK_PARAM_IDS)
    def test_reassemble_to_dense_hamiltonian(self, params, dim):
        assembled = assemble_blocks(*jc_hamiltonian_blocks(params, dim))
        assert np.array_equal(assembled, jc_hamiltonian_entries(params, dim))
        # build_jc_hamiltonian forms a†a as a matrix product, so its diagonal
        # (sqrt n)^2 may sit one ulp off n
        dense = build_jc_hamiltonian(params, dim)
        assert np.abs(assembled - dense).max() <= 1e-15 * np.abs(dense).max()

    @pytest.mark.parametrize("params", BLOCK_PARAMS, ids=BLOCK_PARAM_IDS)
    @pytest.mark.parametrize(
        "field, dim",
        (
            (CoherentField(1.0 + 0.5j), 19),
            (FockField(3), 12),
            (FockField(11), 12),  # the top level |d-1>, whose |e, d-1> partner is uncoupled
            (SuperposedFockField(2, theta=0.7, phi=0.4), 12),
            (SuperposedFockField(0, theta=0.6, phi=0.3), 2),
            (FockField(1), 2),
        ),
        ids=("coherent", "fock", "fock-top", "superposed", "superposed-d2", "fock-top-d2"),
    )
    def test_field_averages_match_dense_reduction(self, field, dim, params):
        b = realize_field_state(field, dim)
        h = jc_hamiltonian_entries(params, dim)
        layout = SpaceLayout(field_dim=dim)
        hams = build_hamiltonians(params, b)
        assert np.abs(hams.effective - effective_hamiltonian(h, b, layout)).max() < 1e-12
        assert np.abs(hams.squared - effective_hamiltonian(h @ h, b, layout)).max() < 1e-12


class TestHamiltonianSet:
    def test_build_satisfies_projection_identity(self):
        b = realize_field_state(CoherentField(1.0), 19)
        hams = build_hamiltonians(PARAMS, b)
        layout = SpaceLayout(field_dim=19)
        assert np.abs(
            hams.effective - effective_hamiltonian(build_jc_hamiltonian(PARAMS, 19), b, layout)
        ).max() < 1e-10

    def test_squared_tolerance_scales_with_its_entries(self):
        # lab frame, |alpha| = 200: <H^2> ~ 1.6e9, and the Gram product's rounding
        # leaves a Hermiticity defect near 1e-9, above HERM_TOL in absolute terms
        spec = CoherentField(200.0 * np.exp(0.3j))
        b = realize_field_state(spec, default_truncation(spec))
        hams = build_hamiltonians(PARAMS, b)
        n = 200.0**2
        # <e, alpha| H^2 |e, alpha> = <(omega_a/2 + omega a†a)^2> + g^2 <a a†> at omega_a = omega = 1
        expected = n * n + 2 * n + 0.25 + PARAMS.g**2 * (n + 1)
        assert hams.squared[0, 0].real == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", ("effective", "squared"))
    def test_non_hermitian_rejected(self, name):
        b = realize_field_state(FockField(1), 8)
        hams = build_hamiltonians(PARAMS, b)
        values = {"effective": hams.effective, "squared": hams.squared}
        broken = values[name].copy()
        broken[0, 1] += 5.0  # breaks symmetry
        values[name] = broken
        with pytest.raises(ValueError, match=f"{name} Hamiltonian is not Hermitian"):
            HamiltonianSet(b_state=b, **values)
