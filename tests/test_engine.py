import math

import numpy as np
import pytest

from zenojc import (
    AtomExcited,
    AtomGround,
    BlochVector,
    CoherentField,
    DensityMatrix,
    FockField,
    JCParams,
    SpaceLayout,
    SuperposedFockField,
    SurvivalCutoffError,
    ZenoRunConfig,
    build_jc_hamiltonian,
    effective_hamiltonian,
    fit_convergence_order,
    pre_measurement_state,
    purity,
    realize_atomic_state,
    realize_field_state,
    run_effective,
    run_superoperator,
    run_zeno_exact,
    step_exact,
    survival_probability,
    trace_distance,
    unitary_from_hamiltonian,
)

from zenojc import engine

from oracles import (
    dense_exact_route,
    driven_excited_population,
    expm_propagate,
    jc_hamiltonian_entries,
    resonant_coherent_config,
    resonant_survival,
)

# frozen from the single-manifold closed form cos^2(g sqrt(1) t), g=0.1, t=0.5
RABI_SURVIVAL_G01_T05 = 0.997502082639013


def composite_state(atom_spec, b):
    atom = realize_atomic_state(atom_spec)
    return DensityMatrix(np.kron(atom.matrix, b.projector()))


def fock_setup(params, n, dim=16):
    b = realize_field_state(FockField(n), dim)
    layout = SpaceLayout(field_dim=dim)
    return b, layout, build_jc_hamiltonian(params, dim)


class TestStepExact:
    def test_zero_time_is_identity_step(self):
        params = JCParams(omega_a=1.0, omega=1.0, g=0.1)
        b, layout, h = fock_setup(params, 0)
        rho = composite_state(AtomExcited(), b)
        u = unitary_from_hamiltonian(h, 0.0)
        rho_next, survival = step_exact(rho, u, b, layout)
        assert survival == pytest.approx(1.0, abs=1e-14)
        assert np.abs(rho_next.matrix - rho.matrix).max() < 1e-13

    def test_decoupled_fock_field_survives_deterministically(self):
        params = JCParams(omega_a=1.0, omega=1.0, g=0.0)
        b, layout, h = fock_setup(params, 2)
        rho = composite_state(BlochVector(1.1, 0.3), b)
        u = unitary_from_hamiltonian(h, 0.7)
        rho_next, survival = step_exact(rho, u, b, layout)
        assert survival == pytest.approx(1.0, abs=1e-12)
        pops_before = np.diag(rho.matrix).real.reshape(2, -1).sum(axis=1)
        pops_after = np.diag(rho_next.matrix).real.reshape(2, -1).sum(axis=1)
        assert np.abs(pops_before - pops_after).max() < 1e-12

    def test_decoupled_coherent_field_dephases_but_leaves_atom_alone(self):
        # |alpha> is not a free-field eigenstate, so survival drops below 1
        # even at g = 0; the renormalized atomic state is untouched.
        params = JCParams(omega_a=1.0, omega=1.0, g=0.0)
        dim = 19
        b = realize_field_state(CoherentField(1.0), dim)
        layout = SpaceLayout(field_dim=dim)
        h = build_jc_hamiltonian(params, dim)
        rho = composite_state(BlochVector(0.8, 0.0), b)
        u = unitary_from_hamiltonian(h, 0.4)
        rho_next, survival = step_exact(rho, u, b, layout)
        assert survival < 1.0 - 1e-3
        atom_before = np.diag(rho.matrix).real.reshape(2, -1).sum(axis=1)
        atom_after = np.diag(rho_next.matrix).real.reshape(2, -1).sum(axis=1)
        assert np.abs(atom_before - atom_after).max() < 1e-12

    def test_survival_matches_single_manifold_rabi(self):
        params = JCParams(omega_a=1.0, omega=1.0, g=0.1)
        b, layout, h = fock_setup(params, 0)
        rho = composite_state(AtomExcited(), b)
        u = unitary_from_hamiltonian(h, 0.5)
        _, survival = step_exact(rho, u, b, layout)
        assert survival == pytest.approx(RABI_SURVIVAL_G01_T05, abs=1e-12)
        assert survival == pytest.approx(resonant_survival(0.1, 0, 0.5), abs=1e-14)

    def test_post_measurement_state_factorizes(self):
        params = JCParams(omega_a=1.0, omega=0.9, g=0.15)
        dim = 19
        b = realize_field_state(CoherentField(1.0 + 0.5j), dim)
        layout = SpaceLayout(field_dim=dim)
        h = build_jc_hamiltonian(params, dim)
        rho = composite_state(AtomGround(), b)
        u = unitary_from_hamiltonian(h, 0.3)
        rho_next, _ = step_exact(rho, u, b, layout)
        r = rho_next.matrix.reshape(2, dim, 2, dim)
        marginal = np.einsum("imin->mn", r)
        fidelity = np.real(b.amplitudes.conj() @ marginal @ b.amplitudes)
        assert fidelity > 1.0 - 1e-10

    def test_vanishing_survival_aborts(self):
        # full transfer out of |e, 0>: survival cos^2(pi/2) ~ 1e-33
        params = JCParams(omega_a=1.0, omega=1.0, g=0.1)
        b, layout, h = fock_setup(params, 0)
        rho = composite_state(AtomExcited(), b)
        u = unitary_from_hamiltonian(h, math.pi / (2 * params.g))
        with pytest.raises(SurvivalCutoffError):
            step_exact(rho, u, b, layout)


class TestRunZenoExact:
    def test_single_measurement_is_evolve_then_project(self):
        cfg = resonant_coherent_config(1, total_time=0.9)
        trace = run_zeno_exact(cfg)
        assert len(trace) == 1

        dim = cfg.resolved_truncation()
        b = realize_field_state(cfg.field_spec, dim)
        layout = SpaceLayout(field_dim=dim)
        h = build_jc_hamiltonian(cfg.params, dim)
        u = unitary_from_hamiltonian(h, 0.9)
        rho_next, survival = step_exact(composite_state(cfg.atom_spec, b), u, b, layout)
        expected = np.einsum(
            "imjn,m,n->ij", rho_next.matrix.reshape(2, dim, 2, dim), b.amplitudes.conj(), b.amplitudes
        )
        assert np.abs(trace.final_atom_state.matrix - expected).max() < 1e-13
        assert trace.steps[0].survival == pytest.approx(survival, abs=1e-15)

    def test_decoupled_fock_run_is_free_atomic_evolution(self):
        params = JCParams(omega_a=1.3, omega=0.7, g=0.0)
        cfg = ZenoRunConfig(
            params=params,
            field_spec=FockField(1),
            atom_spec=BlochVector(0.9, 0.2),
            total_time=4.0,
            num_measurements=16,
        )
        trace = run_zeno_exact(cfg)
        assert survival_probability(trace) == pytest.approx(1.0, abs=1e-12)

        atom0 = realize_atomic_state(cfg.atom_spec).matrix
        h_atom = 0.5 * params.omega_a * np.diag([1.0, -1.0]).astype(complex)
        for step in trace.steps:
            u = unitary_from_hamiltonian(h_atom, step.time)
            assert np.abs(step.atom_state.matrix - u @ atom0 @ u.conj().T).max() < 1e-12

    def test_trace_has_one_record_per_measurement(self):
        cfg = resonant_coherent_config(7)
        trace = run_zeno_exact(cfg)
        assert [s.index for s in trace.steps] == list(range(1, 8))
        assert trace.times() == pytest.approx([k * 5.0 / 7 for k in range(1, 8)])

    def test_cumulative_survival_nonincreasing(self):
        trace = run_zeno_exact(resonant_coherent_config(40))
        cums = [s.cumulative_survival for s in trace.steps]
        assert all(b <= a + 1e-12 for a, b in zip(cums, cums[1:]))
        assert all(0.0 <= s.survival <= 1.0 + 1e-12 for s in trace.steps)

    def test_approaches_effective_route_at_first_order(self):
        reference = run_effective(resonant_coherent_config(1), samples=1).final_atom_state
        points = []
        for n in (64, 128, 256):
            final = run_zeno_exact(resonant_coherent_config(n)).final_atom_state
            points.append((n, trace_distance(final, reference)))
        errors = [e for _, e in points]
        assert errors[0] > errors[1] > errors[2]
        report = fit_convergence_order(points)
        assert -1.2 <= report.fitted_order <= -0.8

    def test_abort_carries_step_index(self):
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=1.0, omega=1.0, g=0.1),
            field_spec=FockField(0),
            atom_spec=AtomExcited(),
            total_time=math.pi / 0.2,
            num_measurements=1,
        )
        with pytest.raises(SurvivalCutoffError) as excinfo:
            run_zeno_exact(cfg)
        assert excinfo.value.step_index == 1
        assert "step 1" in str(excinfo.value)


# a mixed atom the config specs cannot express; the route must not assume purity
MIXED_ATOM = 0.6 * np.array([[0.7, 0.3 - 0.2j], [0.3 + 0.2j, 0.3]]) + 0.2 * np.eye(2)


class TestExactRouteAgainstDenseOracle:
    @pytest.mark.parametrize("n", (1, 7, 128))
    @pytest.mark.parametrize(
        "params",
        (JCParams(omega_a=1.0, omega=1.0, g=0.15), JCParams(omega_a=1.07, omega=0.95, g=0.15)),
        ids=("resonant", "detuned"),
    )
    @pytest.mark.parametrize(
        "field, truncation",
        (
            (CoherentField(1.0 + 0.5j), None),
            (FockField(3), None),
            (SuperposedFockField(2, theta=0.7, phi=0.4), None),
            # all weight on |0> and the top level |1>: both uncoupled edge levels matter
            (SuperposedFockField(0, theta=0.6, phi=0.3), 2),
        ),
        ids=("coherent", "fock", "superposed", "edges"),
    )
    def test_kraus_route_matches_composite_evolve_and_project(
        self, monkeypatch, field, truncation, params, n
    ):
        monkeypatch.setattr(engine, "realize_atomic_state", lambda spec: DensityMatrix(MIXED_ATOM))
        cfg = ZenoRunConfig(
            params=params, field_spec=field, atom_spec=AtomGround(), total_time=3.0, num_measurements=n,
            truncation=truncation,
        )
        trace = run_zeno_exact(cfg)
        b = realize_field_state(field, cfg.resolved_truncation()).amplitudes
        states, cumulative = dense_exact_route(params, b, MIXED_ATOM, cfg.total_time, n)

        assert np.abs(np.array([s.atom_state.matrix for s in trace.steps]) - states).max() < 1e-12
        mine = np.array([s.cumulative_survival for s in trace.steps])
        assert np.abs(mine / cumulative - 1.0).max() < 1e-11

    def test_pre_measurement_state_evolves_the_projected_state(self, monkeypatch):
        monkeypatch.setattr(engine, "realize_atomic_state", lambda spec: DensityMatrix(MIXED_ATOM))
        params = JCParams(omega_a=1.07, omega=0.95, g=0.15)
        cfg = ZenoRunConfig(
            params=params, field_spec=CoherentField(1.0 + 0.5j), atom_spec=AtomGround(),
            total_time=3.0, num_measurements=9,
        )
        b = realize_field_state(cfg.field_spec, cfg.resolved_truncation()).amplitudes
        states, _ = dense_exact_route(params, b, MIXED_ATOM, cfg.total_time, cfg.num_measurements)
        h = jc_hamiltonian_entries(params, b.size)
        # the evolution of step 6 starts from the state the 5th projection left
        expected = expm_propagate(h, np.kron(states[4], np.outer(b, b.conj())), cfg.total_time / 9)
        assert np.abs(pre_measurement_state(cfg, step=6).matrix - expected).max() < 1e-12

    def test_pre_measurement_state_abort_carries_step_index(self):
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=1.0, omega=1.0, g=0.1),
            field_spec=FockField(0),
            atom_spec=AtomExcited(),
            total_time=2 * math.pi / 0.2,
            num_measurements=2,
        )
        with pytest.raises(SurvivalCutoffError) as excinfo:
            pre_measurement_state(cfg, step=2)
        assert excinfo.value.step_index == 1


class TestRunSuperoperator:
    def test_variance_free_field_gives_exactly_unitary_step(self):
        # Fock field with g = 0 makes the measured state an eigenstate, so
        # the second-order damping vanishes and the map is trace preserving.
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=1.1, omega=0.9, g=0.0),
            field_spec=FockField(2),
            atom_spec=BlochVector(1.2, -0.4),
            total_time=3.0,
            num_measurements=24,
        )
        trace = run_superoperator(cfg)
        assert all(abs(s.survival - 1.0) < 1e-12 for s in trace.steps)
        effective = run_effective(cfg)
        for mine, ref in zip(trace.steps, effective.steps):
            assert np.abs(mine.atom_state.matrix - ref.atom_state.matrix).max() < 1e-10

    def test_variance_for_fock_field_matches_closed_form(self):
        # var = <H^2> - <H>^2 = g^2 diag(n+1, n) for a number state
        params = JCParams(omega_a=1.0, omega=1.0, g=0.2)
        n = 3
        b, layout, h = fock_setup(params, n)
        h2_eff = effective_hamiltonian(h @ h, b, layout)
        h_eff = effective_hamiltonian(h, b, layout)
        var = h2_eff - h_eff @ h_eff
        expected = params.g**2 * np.diag([n + 1, n]).astype(complex)
        assert np.abs(var - expected).max() < 1e-12

    def test_single_step_discrepancy_is_third_order(self):
        errors = []
        for dt in (0.1, 0.05, 0.025, 0.0125):
            cfg = resonant_coherent_config(1, total_time=dt)
            exact = run_zeno_exact(cfg).final_atom_state
            reduced = run_superoperator(cfg).final_atom_state
            errors.append(np.abs(exact.matrix - reduced.matrix).max())
        ratios = [errors[i] / errors[i + 1] for i in range(3)]
        assert all(6.0 <= r <= 10.0 for r in ratios)

    def test_converges_to_effective_route(self):
        reference = run_effective(resonant_coherent_config(1), samples=1).final_atom_state
        distances = [
            trace_distance(run_superoperator(resonant_coherent_config(n)).final_atom_state, reference)
            for n in (32, 128, 512)
        ]
        assert distances[0] > distances[1] > distances[2]
        assert distances[2] < 5e-4

    def test_survival_estimate_tracks_exact_route(self):
        cfg = resonant_coherent_config(64)
        exact = survival_probability(run_zeno_exact(cfg))
        estimate = survival_probability(run_superoperator(cfg))
        assert estimate == pytest.approx(exact, rel=1e-2)

    def test_exponential_falls_back_on_defective_generators(self):
        import scipy.linalg

        from zenojc.engine import _expm

        jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert np.abs(_expm(jordan) - scipy.linalg.expm(jordan)).max() < 1e-12
        # and the eigendecomposition path agrees with scipy on healthy input
        rng = np.random.default_rng(41)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(_expm(x) - scipy.linalg.expm(x)).max() < 1e-10


class TestRouteAgreementAcrossConfigurations:
    CONFIGS = (
        # detuned atom, complex coherent amplitude, tilted atom
        ZenoRunConfig(
            params=JCParams(omega_a=1.4, omega=0.9, g=0.15),
            field_spec=CoherentField(0.8 - 0.6j),
            atom_spec=BlochVector(1.9, 0.5),
            total_time=4.0,
            num_measurements=256,
        ),
        # superposed-Fock measurement with a nonzero relative phase
        ZenoRunConfig(
            params=JCParams(omega_a=0.6, omega=1.1, g=0.2),
            field_spec=SuperposedFockField(2, theta=0.9, phi=2.1),
            atom_spec=AtomExcited(),
            total_time=3.0,
            num_measurements=256,
        ),
        # bare number state far from resonance
        ZenoRunConfig(
            params=JCParams(omega_a=2.0, omega=0.5, g=0.1),
            field_spec=FockField(4),
            atom_spec=BlochVector(0.6, -1.0),
            total_time=6.0,
            num_measurements=256,
        ),
    )

    def test_both_protocol_routes_land_near_the_limit(self):
        for cfg in self.CONFIGS:
            reference = run_effective(cfg, samples=1).final_atom_state
            d_exact = trace_distance(run_zeno_exact(cfg).final_atom_state, reference)
            d_super = trace_distance(run_superoperator(cfg).final_atom_state, reference)
            coarse = cfg.replace_measurements(64)
            d_exact_coarse = trace_distance(run_zeno_exact(coarse).final_atom_state, reference)
            assert d_exact < 0.05
            assert d_super < 0.05
            assert d_exact < d_exact_coarse  # refining N helps

    def test_protocol_routes_agree_with_each_other_closely(self):
        # both carry the same O(1/N) deviation from the limit, so they sit
        # much closer to each other than to it
        for cfg in self.CONFIGS:
            exact = run_zeno_exact(cfg)
            reduced = run_superoperator(cfg)
            reference = run_effective(cfg, samples=1).final_atom_state
            gap = trace_distance(exact.final_atom_state, reduced.final_atom_state)
            offset = trace_distance(exact.final_atom_state, reference)
            if offset > 1e-6:
                assert gap < 0.2 * offset
            for a, b in zip(exact.steps, reduced.steps):
                assert b.survival == pytest.approx(a.survival, abs=1e-4)


class TestRunEffective:
    def test_fock_field_freezes_populations(self):
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=1.0, omega=1.0, g=0.1),
            field_spec=FockField(1),
            atom_spec=BlochVector(0.7, 0.1),
            total_time=5.0,
            num_measurements=50,
        )
        trace = run_effective(cfg)
        initial = realize_atomic_state(cfg.atom_spec).matrix[0, 0].real
        assert np.abs(trace.excited_populations() - initial).max() < 1e-12

    def test_real_amplitude_drives_full_rabi_flopping(self):
        # omega_a = 0: P_e(t) = sin^2(g alpha t) from the ground state
        alpha, g = 2.0, 0.1
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=0.0, omega=1.0, g=g),
            field_spec=CoherentField(alpha),
            atom_spec=AtomGround(),
            total_time=5.0,
            num_measurements=40,
        )
        trace = run_effective(cfg)
        expected = np.sin(g * alpha * trace.times()) ** 2
        assert np.abs(trace.excited_populations() - expected).max() < 1e-9

    def test_detuned_flopping_matches_closed_form(self):
        cfg = resonant_coherent_config(32)
        trace = run_effective(cfg)
        drive = cfg.params.g * 1.0  # g alpha
        expected = [driven_excited_population(cfg.params.omega_a, drive, t) for t in trace.times()]
        assert np.abs(trace.excited_populations() - expected).max() < 1e-9

    def test_short_time_limit_returns_initial_state(self):
        cfg = resonant_coherent_config(1, total_time=1e-9)
        trace = run_effective(cfg, samples=1)
        initial = realize_atomic_state(cfg.atom_spec).matrix
        assert np.abs(trace.final_atom_state.matrix - initial).max() < 1e-8

    def test_all_survivals_are_unity(self):
        trace = run_effective(resonant_coherent_config(12))
        assert all(s.survival == 1.0 for s in trace.steps)
        assert survival_probability(trace) == 1.0

    def test_sample_count_is_respected(self):
        trace = run_effective(resonant_coherent_config(64), samples=5)
        assert len(trace) == 5
        assert trace.steps[-1].time == pytest.approx(5.0)

    def test_purity_is_conserved(self):
        cfg = resonant_coherent_config(48)
        trace = run_effective(cfg)
        initial = purity(realize_atomic_state(cfg.atom_spec))
        assert max(abs(purity(s.atom_state) - initial) for s in trace.steps) < 1e-10


class TestSurvivalScaling:
    def test_decoupled_fock_survival_is_one(self):
        # unitary phases round at the last ulp, so "exactly 1" means 1e-12 here
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=1.0, omega=1.0, g=0.0),
            field_spec=FockField(0),
            atom_spec=AtomExcited(),
            total_time=5.0,
            num_measurements=20,
        )
        assert survival_probability(run_zeno_exact(cfg)) == pytest.approx(1.0, abs=1e-12)

    def test_single_measurement_matches_rabi_loss(self):
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=1.0, omega=1.0, g=0.1),
            field_spec=FockField(0),
            atom_spec=AtomExcited(),
            total_time=0.5,
            num_measurements=1,
        )
        assert survival_probability(run_zeno_exact(cfg)) == pytest.approx(
            RABI_SURVIVAL_G01_T05, abs=1e-12
        )

    def test_loss_scales_inversely_with_measurement_count(self):
        points = [
            (n, 1.0 - survival_probability(run_zeno_exact(resonant_coherent_config(n))))
            for n in (32, 64, 128, 256, 512)
        ]
        report = fit_convergence_order(points)
        assert -1.2 <= report.fitted_order <= -0.8


class TestLargeFields:
    ROUTES = (run_zeno_exact, run_superoperator, run_effective)

    def test_coherent_field_past_amplitude_underflow(self):
        # |alpha| = 39 with auto truncation (d = 1843), resonant co-rotating frame
        g, alpha = 0.1, 39.0
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=0.0, omega=0.0, g=g),
            field_spec=CoherentField(alpha),
            atom_spec=AtomGround(),
            total_time=1.0,
            num_measurements=16,
        )
        exact, reduced, limit = (route(cfg) for route in self.ROUTES)
        assert exact.truncation == 1843
        expected = [driven_excited_population(0.0, g * alpha, t) for t in limit.times()]
        assert np.abs(limit.excited_populations() - expected).max() < 1e-9
        for trace in (exact, reduced):
            assert np.abs(trace.excited_populations() - limit.excited_populations()).max() < 1e-3
            assert 0.99 < survival_probability(trace) <= 1.0

    def test_routes_never_form_the_composite_hamiltonian(self):
        # d = 100 000: a dense 2d x 2d H would exceed tensor_product's size limit
        params = JCParams(omega_a=1.0, omega=1.0, g=0.1)
        n = 50_000
        cfg = ZenoRunConfig(
            params=params,
            field_spec=FockField(n),
            atom_spec=AtomExcited(),
            total_time=0.5,
            num_measurements=16,
            truncation=100_000,
        )
        traces = [route(cfg) for route in self.ROUTES]
        assert all(len(trace) == 16 and trace.truncation == 100_000 for trace in traces)
        # a number state only dephases the atom, and the exact step loses cos^2(g sqrt(n+1) dt)
        expected = resonant_survival(params.g, n, cfg.total_time / 16)
        assert all(s.survival == pytest.approx(expected, rel=1e-12) for s in traces[0].steps)


class TestPreMeasurementState:
    def test_state_is_pure_for_pure_initial_atom(self):
        cfg = resonant_coherent_config(8)
        rho = pre_measurement_state(cfg)
        assert purity(rho) > 1.0 - 1e-10

    def test_defaults_to_final_step_and_validates_index(self):
        cfg = resonant_coherent_config(4)
        assert np.abs(
            pre_measurement_state(cfg).matrix - pre_measurement_state(cfg, step=4).matrix
        ).max() == 0.0
        with pytest.raises(ValueError, match="step"):
            pre_measurement_state(cfg, step=5)

    def test_first_step_is_plain_evolution(self):
        cfg = resonant_coherent_config(6)
        dim = cfg.resolved_truncation()
        b = realize_field_state(cfg.field_spec, dim)
        h = build_jc_hamiltonian(cfg.params, dim)
        u = unitary_from_hamiltonian(h, cfg.total_time / 6)
        rho0 = composite_state(cfg.atom_spec, b)
        expected = u @ rho0.matrix @ u.conj().T
        assert np.abs(pre_measurement_state(cfg, step=1).matrix - expected).max() < 1e-14


class TestConfigValidation:
    def test_total_time_must_be_positive(self):
        with pytest.raises(ValueError, match="total_time"):
            resonant_coherent_config(4, total_time=0.0)

    def test_measurement_count_must_be_positive(self):
        with pytest.raises(ValueError, match="num_measurements"):
            resonant_coherent_config(0)

    def test_truncation_lower_bound(self):
        with pytest.raises(ValueError, match="truncation"):
            ZenoRunConfig(
                params=JCParams(omega_a=1.0, omega=1.0, g=0.1),
                field_spec=FockField(0),
                atom_spec=AtomGround(),
                total_time=1.0,
                num_measurements=1,
                truncation=1,
            )

    def test_truncation_too_small_for_field_fails_at_run(self):
        cfg = ZenoRunConfig(
            params=JCParams(omega_a=1.0, omega=1.0, g=0.1),
            field_spec=FockField(9),
            atom_spec=AtomGround(),
            total_time=1.0,
            num_measurements=1,
            truncation=8,
        )
        with pytest.raises(ValueError, match="truncation"):
            run_zeno_exact(cfg)

    def test_auto_truncation_resolution(self):
        assert resonant_coherent_config(1).resolved_truncation() == 19

    def test_replace_measurements_preserves_everything_else(self):
        cfg = resonant_coherent_config(8)
        other = cfg.replace_measurements(64)
        assert other.num_measurements == 64
        assert other.params == cfg.params and other.field_spec == cfg.field_spec

    def test_step_record_rejects_bad_probability(self):
        from zenojc import ZenoStep

        atom = realize_atomic_state(AtomGround())
        with pytest.raises(ValueError, match="survival"):
            ZenoStep(index=1, time=0.1, atom_state=atom, survival=1.5, cumulative_survival=1.0)
