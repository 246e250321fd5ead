import math

import numpy as np
import pytest

from zenojc import (
    COHERENT_DEFECT_TOL,
    AtomExcited,
    AtomGround,
    BlochVector,
    CoherentField,
    FockField,
    SuperposedFockField,
    coherent_truncation_defect,
    default_truncation,
    field_ladder_operators,
    realize_atomic_state,
    realize_field_state,
)

from oracles import coherent_mean_photon_direct


class TestFieldStates:
    def test_coherent_zero_is_vacuum(self):
        psi = realize_field_state(CoherentField(0.0), 8)
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.array_equal(psi.amplitudes, expected)

    def test_superposed_at_half_pi_is_next_fock(self):
        psi = realize_field_state(SuperposedFockField(0, theta=math.pi / 2, phi=0.0), 8)
        assert abs(psi.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(psi.amplitudes[0]) < 1e-15

    def test_coherent_mean_photon_number(self):
        # direct-summation oracle gives 3.999999999999998 for alpha=2, D=30
        psi = realize_field_state(CoherentField(2.0), 30)
        a, a_dag = field_ladder_operators(30)
        mean = float(np.real(psi.amplitudes.conj() @ (a_dag @ a) @ psi.amplitudes))
        assert mean == pytest.approx(coherent_mean_photon_direct(2.0, 30), abs=1e-12)
        assert mean == pytest.approx(4.0, abs=1e-6)

    def test_fock_index_must_fit_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            realize_field_state(FockField(5), 5)

    def test_superposed_upper_level_must_fit(self):
        with pytest.raises(ValueError, match="truncation"):
            realize_field_state(SuperposedFockField(4, theta=0.3), 5)

    def test_coherent_rejects_excessive_defect(self):
        with pytest.raises(ValueError, match="defect"):
            realize_field_state(CoherentField(4.0), 16)

    def test_realized_states_are_normalized(self):
        specs = [
            FockField(3),
            CoherentField(1.5 - 2.0j),
            SuperposedFockField(2, theta=0.4, phi=1.0),
        ]
        for spec in specs:
            psi = realize_field_state(spec, default_truncation(spec))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_negative_fock_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FockField(-1)


class TestTruncationRule:
    def test_coherent_rule_value(self):
        assert default_truncation(CoherentField(1.0)) == 19
        assert default_truncation(CoherentField(2.0)) == 30
        assert default_truncation(CoherentField(0.0)) == 16

    def test_defect_bound_over_amplitude_grid(self):
        for radius in np.linspace(0.1, 4.0, 9):
            for angle in (0.0, 2.2):
                alpha = radius * complex(math.cos(angle), math.sin(angle))
                dim = default_truncation(CoherentField(alpha))
                assert coherent_truncation_defect(alpha, dim) < 1e-8

    @pytest.mark.parametrize("radius", (38.0, 39.0, 50.0, 200.0))
    def test_large_amplitudes_do_not_underflow(self, radius):
        # e^{-|alpha|^2/2} is 0.0 in double precision past |alpha| ~ 38.6
        alpha = radius * complex(math.cos(0.7), math.sin(0.7))
        spec = CoherentField(alpha)
        dim = default_truncation(spec)
        assert coherent_truncation_defect(alpha, dim) < COHERENT_DEFECT_TOL
        c = realize_field_state(spec, dim).amplitudes
        assert abs(np.linalg.norm(c) - 1.0) < 1e-12
        # <a> = sum_n conj(c_n) sqrt(n+1) c_{n+1} = alpha checks magnitudes and phases
        mean_a = np.sum(c[:-1].conj() * np.sqrt(np.arange(1, dim)) * c[1:])
        assert abs(mean_a - alpha) < 1e-8 * radius

    def test_fock_rule_covers_index(self):
        assert default_truncation(FockField(0)) == 16
        assert default_truncation(FockField(20)) == 22
        assert default_truncation(SuperposedFockField(20, theta=0.1)) == 23


class TestFieldAverages:
    def test_coherent_annihilation_average(self):
        for alpha in (0.5, 1.0 + 1.0j, -2.0):
            spec = CoherentField(alpha)
            dim = default_truncation(spec)
            psi = realize_field_state(spec, dim)
            a, _ = field_ladder_operators(dim)
            avg = complex(psi.amplitudes.conj() @ a @ psi.amplitudes)
            assert abs(avg - alpha) < 1e-8

    def test_superposed_annihilation_average_is_exact(self):
        for n, theta, phi in ((0, 0.3, 0.0), (3, 1.2, -0.7), (6, 0.785, 2.0)):
            spec = SuperposedFockField(n, theta=theta, phi=phi)
            dim = default_truncation(spec)
            psi = realize_field_state(spec, dim)
            a, _ = field_ladder_operators(dim)
            avg = complex(psi.amplitudes.conj() @ a @ psi.amplitudes)
            expected = math.cos(theta) * math.sin(theta) * math.sqrt(n + 1) * np.exp(1j * phi)
            assert abs(avg - expected) < 1e-12

    def test_fock_annihilation_average_is_zero(self):
        psi = realize_field_state(FockField(4), 16)
        a, _ = field_ladder_operators(16)
        assert complex(psi.amplitudes.conj() @ a @ psi.amplitudes) == 0


class TestAtomicStates:
    def test_excited_is_upper_level(self):
        rho = realize_atomic_state(AtomExcited())
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_equator_state(self):
        rho = realize_atomic_state(BlochVector(math.pi / 2, 0.0))
        assert np.abs(rho.matrix - 0.5 * np.ones((2, 2))).max() < 1e-12

    def test_south_pole_is_ground(self):
        for azimuth in (0.0, 1.0, -2.5):
            rho = realize_atomic_state(BlochVector(math.pi, azimuth))
            assert np.abs(rho.matrix - np.diag([0.0, 1.0])).max() < 1e-12

    def test_ground_matches_south_pole_convention(self):
        assert np.array_equal(
            realize_atomic_state(AtomGround()).matrix, np.diag([0.0, 1.0]).astype(complex)
        )


class TestLadderOperators:
    def test_vacuum_annihilation(self):
        a, _ = field_ladder_operators(5)
        vac = np.zeros(5)
        vac[0] = 1.0
        assert np.array_equal(a @ vac, np.zeros(5))

    def test_number_expectation(self):
        a, a_dag = field_ladder_operators(5)
        one = np.zeros(5)
        one[1] = 1.0
        assert np.real(one @ (a_dag @ a) @ one) == 1.0

    def test_commutator_shows_truncation_artifact(self):
        # sqrt(n)^2 rounds at the last ulp, so compare to tolerance
        d = 7
        a, a_dag = field_ladder_operators(d)
        commutator = a @ a_dag - a_dag @ a
        expected = np.eye(d, dtype=complex)
        expected[d - 1, d - 1] = 1 - d
        assert np.abs(commutator - expected).max() < 1e-12

    def test_raising_matrix_elements(self):
        d = 6
        _, a_dag = field_ladder_operators(d)
        for n in range(d - 1):
            ket = np.zeros(d)
            ket[n] = 1.0
            out = a_dag @ ket
            assert out[n + 1] == pytest.approx(math.sqrt(n + 1), abs=1e-15)

    def test_minimum_dimension(self):
        with pytest.raises(ValueError, match="at least 2"):
            field_ladder_operators(1)
