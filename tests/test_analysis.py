import math

import numpy as np
import pytest

from zenojc import (
    ConvergenceReport,
    DensityMatrix,
    JCParams,
    PureState,
    SpaceLayout,
    build_jc_hamiltonian,
    entanglement_entropy,
    fit_convergence_order,
    pre_measurement_state,
    purity,
    run_effective,
    run_zeno_exact,
    trace_distance,
    unitary_from_hamiltonian,
)

from oracles import expm_propagate, loop_partial_trace_field, resonant_coherent_config


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def pure_atom(amplitudes):
    return PureState(np.asarray(amplitudes, dtype=complex)).density_matrix()


class TestTraceDistance:
    def test_identical_states(self):
        rho = pure_atom([1.0, 0.0])
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        excited = pure_atom([1.0, 0.0])
        ground = pure_atom([0.0, 1.0])
        assert trace_distance(excited, ground) == pytest.approx(1.0, abs=1e-15)

    def test_pure_versus_maximally_mixed(self):
        # difference has eigenvalues +/- 1/2, so the distance is exactly 1/2
        excited = pure_atom([1.0, 0.0])
        mixed = DensityMatrix(np.eye(2) / 2)
        assert trace_distance(excited, mixed) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_is_bit_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a, b = random_density(rng, 3), random_density(rng, 3)
            assert trace_distance(a, b) == trace_distance(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(29)
        for dim in (2, 5):
            for _ in range(10):
                a, b, c = (random_density(rng, dim) for _ in range(3))
                assert trace_distance(a, b) <= (
                    trace_distance(a, c) + trace_distance(c, b) + 1e-12
                )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(31)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = unitary_from_hamiltonian(0.5 * (h + h.conj().T), 1.3)
        for _ in range(5):
            a, b = random_density(rng, 4), random_density(rng, 4)
            rotated = trace_distance(
                DensityMatrix(u @ a.matrix @ u.conj().T), DensityMatrix(u @ b.matrix @ u.conj().T)
            )
            assert abs(rotated - trace_distance(a, b)) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = trace_distance(random_density(rng, 4), random_density(rng, 4))
            assert 0.0 <= d <= 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(pure_atom([1.0, 0.0]), DensityMatrix(np.eye(3) / 3))


class TestPurity:
    def test_pure_state(self):
        assert purity(pure_atom([0.6, 0.8])) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        assert purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-15)

    def test_jc_reduced_state_loses_purity(self):
        # full-space oracle evolution, then contraction: atom-field coupling
        # mixes the reduced state
        d = 8
        params = JCParams(omega_a=1.0, omega=1.0, g=0.1)
        h = build_jc_hamiltonian(params, d)
        psi0 = np.zeros(2 * d, dtype=complex)
        psi0[0] = 1.0  # |e, 0>
        evolved = expm_propagate(h, np.outer(psi0, psi0.conj()), (math.pi / 4) / params.g)
        reduced = DensityMatrix(loop_partial_trace_field(evolved, d))
        assert purity(reduced) < 1.0 - 1e-3


class TestEntanglementEntropy:
    def test_product_state_has_none(self):
        layout = SpaceLayout(field_dim=3)
        atom = np.array([0.6, 0.8j], dtype=complex)
        field = np.array([1.0, 0.0, 0.0], dtype=complex)
        rho = PureState(np.kron(atom, field)).density_matrix()
        assert entanglement_entropy(rho, layout) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_entangled_pair_has_one_bit(self):
        layout = SpaceLayout(field_dim=2)
        bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
        rho = PureState(bell).density_matrix()
        assert entanglement_entropy(rho, layout) == pytest.approx(1.0, abs=1e-12)

    def test_jc_evolution_generates_entanglement(self):
        cfg = resonant_coherent_config(4)
        layout = SpaceLayout(field_dim=cfg.resolved_truncation())
        rho = pre_measurement_state(cfg, step=1)
        assert entanglement_entropy(rho, layout) > 1e-6

    def test_mixed_composite_rejected(self):
        layout = SpaceLayout(field_dim=2)
        mixed = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError, match="pure"):
            entanglement_entropy(mixed, layout)

    def test_zero_eigenvalues_do_not_produce_nan(self):
        layout = SpaceLayout(field_dim=4)
        atom = np.array([1.0, 0.0], dtype=complex)
        field = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        rho = PureState(np.kron(atom, field)).density_matrix()
        value = entanglement_entropy(rho, layout)
        assert value == 0.0 and not math.isnan(value)


class TestConvergenceFit:
    def test_exact_first_order_power_law(self):
        points = [(n, 3.7 / n) for n in (8, 16, 32, 64)]
        report = fit_convergence_order(points)
        assert report.fitted_order == pytest.approx(-1.0, abs=1e-10)
        assert report.fit_residual < 1e-10
        assert not report.exact

    def test_exact_second_order_power_law(self):
        points = [(n, 0.2 / n**2) for n in (8, 16, 32, 64, 128)]
        report = fit_convergence_order(points)
        assert report.fitted_order == pytest.approx(-2.0, abs=1e-10)

    def test_full_pipeline_order(self):
        reference = run_effective(resonant_coherent_config(1), samples=1).final_atom_state
        points = []
        for n in (32, 64, 128, 256):
            final = run_zeno_exact(resonant_coherent_config(n)).final_atom_state
            points.append((n, trace_distance(final, reference)))
        report = fit_convergence_order(points)
        assert -1.2 <= report.fitted_order <= -0.8
        assert report.fit_residual < 0.1

    def test_vanishing_errors_reported_as_exact(self):
        report = fit_convergence_order([(8, 0.0), (16, 0.0), (32, 0.0)])
        assert report.exact
        assert math.isnan(report.fitted_order)
        assert report.fit_residual == 0.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_convergence_order([(8, 0.1), (16, 0.05)])

    def test_report_requires_increasing_n(self):
        with pytest.raises(ValueError, match="increasing"):
            ConvergenceReport(
                n_values=(8, 8, 16), errors=(0.1, 0.1, 0.05), fitted_order=-1.0, fit_residual=0.0
            )


class TestProtocolEntanglement:
    def test_post_projection_states_are_products(self):
        # every projection restores the product form, so entanglement stays
        # at numerical zero along the protocol
        import zenojc.engine as engine
        from zenojc import build_jc_hamiltonian, realize_atomic_state, realize_field_state

        cfg = resonant_coherent_config(10)
        layout = SpaceLayout(field_dim=cfg.resolved_truncation())
        b = realize_field_state(cfg.field_spec, layout.field_dim)
        h = build_jc_hamiltonian(cfg.params, layout.field_dim)
        u = unitary_from_hamiltonian(h, cfg.total_time / 10)
        rho = DensityMatrix(np.kron(realize_atomic_state(cfg.atom_spec).matrix, b.projector()))
        for _ in range(10):
            rho, _ = engine.step_exact(rho, u, b, layout)
            assert entanglement_entropy(rho, layout) < 1e-8

    def test_pre_measurement_entanglement_shrinks_with_frequency(self):
        layout = SpaceLayout(field_dim=resonant_coherent_config(1).resolved_truncation())
        entropies = [
            entanglement_entropy(pre_measurement_state(resonant_coherent_config(n)), layout)
            for n in (8, 32, 128)
        ]
        assert entropies[0] > entropies[1] > entropies[2]
