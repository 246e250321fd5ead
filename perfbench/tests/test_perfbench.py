"""Tests of the benchmark's own code: reference, gate, span arithmetic, generator, counts.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import harness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import zenojc  # noqa: E402
import zenojc.cli  # noqa: E402

SMALL = workloads.Physics(
    omega_a=1.07,
    omega=1.0,
    g=0.17,
    total_time=2.0,
    n_values=(16,),
    field=("coherent", 0.8, -0.5),
    polar=1.1,
    azimuth=0.4,
    truncation=12,
    routes=("exact", "super", "effective"),
    output_format="csv",
    sweep=False,
)
FIELDS = (("coherent", 0.8, -0.5), ("fock", 3), ("superposed", 2, 0.7, -1.2))
LIBRARY_ROUTES = {"exact": zenojc.run_zeno_exact, "super": zenojc.run_superoperator, "effective": zenojc.run_effective}


def _library_config(p: workloads.Physics, n: int) -> zenojc.ZenoRunConfig:
    kind = p.field[0]
    if kind == "coherent":
        field = zenojc.CoherentField(complex(p.field[1], p.field[2]))
    elif kind == "fock":
        field = zenojc.FockField(p.field[1])
    else:
        field = zenojc.SuperposedFockField(p.field[1], theta=p.field[2], phi=p.field[3])
    return zenojc.ZenoRunConfig(
        params=zenojc.JCParams(omega_a=p.omega_a, omega=p.omega, g=p.g),
        field_spec=field,
        atom_spec=zenojc.BlochVector(p.polar, p.azimuth),
        total_time=p.total_time,
        num_measurements=n,
        truncation=p.truncation,
    )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f[0])
@pytest.mark.parametrize("route", ("exact", "super", "effective"))
def test_reference_agrees_with_library(route, field):
    p = replace(SMALL, field=field)
    want = reference.predict(p, route, 16)
    trace = LIBRARY_ROUTES[route](_library_config(p, 16))
    got = np.array([s.atom_state.matrix for s in trace.steps])
    assert np.abs(got - want.rho).max() < 1e-12
    assert np.allclose([s.survival for s in trace.steps], want.step_survival, rtol=1e-12, atol=0)
    assert np.allclose([s.cumulative_survival for s in trace.steps], want.cum_survival, rtol=1e-12, atol=0)


def test_reference_field_averages_match_library():
    b = reference.field_vector(SMALL.field, SMALL.truncation)
    h, h2 = reference.field_averages(SMALL, b)
    psi = zenojc.realize_field_state(zenojc.CoherentField(complex(0.8, -0.5)), SMALL.truncation)
    full = zenojc.build_jc_hamiltonian(zenojc.JCParams(SMALL.omega_a, SMALL.omega, SMALL.g), SMALL.truncation)
    layout = zenojc.SpaceLayout(field_dim=SMALL.truncation)
    assert np.abs(b - psi.amplitudes).max() < 1e-14
    assert np.abs(h - zenojc.effective_hamiltonian(full, psi, layout)).max() < 1e-13
    assert np.abs(h2 - zenojc.effective_hamiltonian(full @ full, psi, layout)).max() < 1e-12


def _run_one(tmp_path, workload, index=0):
    cmd = workloads.generate(workload, 3)[index]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(cmd.config)
    out = tmp_path / "out"
    stdout = io.StringIO()
    sys_stdout, sys.stdout = sys.stdout, stdout
    try:
        status = zenojc.cli.main(cmd.argv(str(cfg), str(out)))
    finally:
        sys.stdout = sys_stdout
    exp = reference.expected(cmd.physics) if cmd.physics else None
    return cmd, status, stdout.getvalue(), out, exp


def test_gate_passes_sweep_outputs(tmp_path):
    cmd, status, stdout, out, exp = _run_one(tmp_path, "fast-route-sweep")
    outcome = reference.check_outputs(cmd, status, stdout, out, exp)
    assert outcome.errors == []
    assert outcome.rows == 2 * sum(workloads.SWEEP_N) + 3


def test_gate_trips_on_perturbed_table(tmp_path):
    cmd, status, stdout, out, exp = _run_one(tmp_path, "exact-route")
    assert reference.check_outputs(cmd, status, stdout, out, exp).errors == []
    path = out / f"trace_exact_N{workloads.EXACT_N}.json"
    pristine = path.read_text()

    doc = json.loads(pristine)
    doc["records"][40]["rho_ee"] += 1e-7
    path.write_text(json.dumps(doc))
    assert any("rho_ee" in e for e in reference.check_outputs(cmd, status, stdout, out, exp).errors)

    doc = json.loads(pristine)
    del doc["records"][-1]
    path.write_text(json.dumps(doc))
    assert any("rows" in e for e in reference.check_outputs(cmd, status, stdout, out, exp).errors)

    path.write_text(pristine)
    (out / "extra.json").write_text("{}")
    assert reference.check_outputs(cmd, status, stdout, out, exp).errors
    assert reference.check_outputs(cmd, 1, stdout, out, exp).errors


def test_gate_requires_all_checks_pass():
    cmd = workloads.Command(verb="check", config="", check_seed=1)
    good = "PASS  a  ok\nPASS  b  ok\n2/2 checks passed\n"
    assert reference.check_outputs(cmd, 0, good, Path("unused"), None).errors == []
    bad = "PASS  a  ok\nFAIL  b  off\n1/2 checks passed\n"
    assert reference.check_outputs(cmd, 0, bad, Path("unused"), None).errors
    assert reference.check_outputs(cmd, 1, good, Path("unused"), None).errors


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and c [8, 12]
    # (runs past its parent); a has child d [2, 3].
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
    ]
    # root: 10 - |[1, 6] U [8, 10]| = 3; a: 3 - 1 = 2
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 4.0, 1.0]
    totals = spans.layer_totals(tree + [["a", 1.5, 2.0, 1, 0]])
    assert totals["a"] == {"calls": 2, "total": 3.0, "self": 2.0}


def test_seed_yields_byte_identical_configs():
    for workload in workloads.WORKLOADS:
        first, second = workloads.generate(workload, 11), workloads.generate(workload, 11)
        assert [c.config for c in first] == [c.config for c in second]
        assert [c.check_seed for c in first] == [c.check_seed for c in second]
        assert workloads.digest(first) == workloads.digest(second)
        assert workloads.digest(first) != workloads.digest(workloads.generate(workload, 12))


def test_generated_configs_parse_to_their_physics():
    for workload in ("exact-route", "fast-route-sweep", "large-field"):
        for cmd in workloads.generate(workload, 5):
            spec = zenojc.cli.parse_config(cmd.config)
            p = cmd.physics
            assert spec.run.params == zenojc.JCParams(p.omega_a, p.omega, p.g)
            assert spec.run.truncation == p.truncation
            assert (spec.sweep or (spec.run.num_measurements,)) == p.n_values


def _traced_pass(workdir, workload, commands):
    """Per-layer metrics of a traced run over the first commands of a workload's pool."""
    workdir.mkdir(exist_ok=True)
    pool = workloads.generate(workload, 4)[:commands]
    harness.prepare(workdir, pool)
    runner = harness.Runner(zenojc.cli, pool, workdir)
    metrics = harness.measure_layers(runner, seconds=0)
    assert runner.failures == []
    return metrics


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    runs = {}
    for workload, commands in (("exact-route", 1), ("fast-route-sweep", 1), ("check", 1)):
        runs[workload] = [
            _traced_pass(tmp_path_factory.mktemp(workload), workload, commands) for _ in range(2)
        ]
    return runs


@pytest.mark.parametrize("workload", ("exact-route", "fast-route-sweep", "check"))
def test_traced_counts_repeat_exactly(traced_twice, workload):
    first, second = (
        {m: v for m, (v, _unit, samples) in run.items() if samples.startswith("per command") and m != "trace.overhead_ratio"}
        for run in traced_twice[workload]
    )
    assert first == second
    assert first["engine.steps"] > 0
    assert first["hilbert.density_calls"] > 0
    assert first["models.build_calls"] > 0


def test_metric_names_match_benchmark_json(traced_twice):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for workload, (metrics, _) in traced_twice.items():
        assert set(metrics) == {m["name"] for m in declared["per_layer"]}, workload
        assert all(math.isfinite(v) for v, _unit, _samples in metrics.values())
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {m: unit for m, (_v, unit, _s) in traced_twice["check"][0].items()} == units
    assert {m["name"] for m in declared["end_to_end"]} == {"cmd_p50_s", "cmd_p90_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
