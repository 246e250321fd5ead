import io
import json
import math
from pathlib import Path

import pytest

from zenojc import AtomGround, CoherentField
from zenojc.cli import (
    CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    main,
    parse_config,
    run_experiment,
    serialize_config,
)

MINIMAL = """
omega_a = 1.0
omega = 1.0
g = 0.1
T = 5.0
N = 100
field.kind = coherent
field.alpha_re = 1.0
"""


def read_rows(path: Path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        spec = parse_config(MINIMAL)
        assert spec.run.params.omega_a == 1.0
        assert spec.run.field_spec == CoherentField(1.0 + 0.0j)
        assert spec.run.atom_spec == AtomGround()
        assert spec.run.truncation is None
        assert spec.routes == ("exact", "superoperator", "effective")
        assert spec.sweep is None
        assert spec.output_format == "csv"

    def test_negative_fock_index_names_the_key(self):
        text = MINIMAL.replace("field.kind = coherent", "field.kind = fock").replace(
            "field.alpha_re = 1.0", "field.n = -1"
        )
        with pytest.raises(ConfigError, match="field.n"):
            parse_config(text)

    def test_unknown_key_is_rejected_by_name(self):
        with pytest.raises(ConfigError, match="frequency"):
            parse_config(MINIMAL + "frequency = 2.0\n")

    def test_key_not_valid_for_chosen_kind(self):
        with pytest.raises(ConfigError, match="field.theta"):
            parse_config(MINIMAL + "field.theta = 0.4\n")

    def test_missing_required_key(self):
        text = MINIMAL.replace("g = 0.1\n", "")
        with pytest.raises(ConfigError, match="'g'"):
            parse_config(text)

    def test_type_mismatch_reports_line(self):
        text = MINIMAL.replace("N = 100", "N = ten")
        with pytest.raises(ConfigError, match=r"line 6.*'N'"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "g = 0.2\n")

    def test_sweep_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(MINIMAL + "sweep = 64,32\n")

    def test_sweep_parses_to_plan(self):
        spec = parse_config(MINIMAL + "sweep = 64,128,256\n")
        assert spec.sweep == (64, 128, 256)

    def test_route_aliases_normalize(self):
        spec = parse_config(MINIMAL + "routes = super,exact\n")
        assert spec.routes == ("exact", "superoperator")

    def test_unknown_route_rejected(self):
        with pytest.raises(ConfigError, match="route"):
            parse_config(MINIMAL + "routes = psycho\n")

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_config("# leading comment\n\n" + MINIMAL + "truncation = 24  # inline\n")
        assert spec.run.truncation == 24

    def test_invalid_physics_rejected(self):
        with pytest.raises(ConfigError, match="nonnegative"):
            parse_config(MINIMAL.replace("g = 0.1", "g = -0.1"))


class TestRoundTrip:
    def specs(self):
        base = parse_config(MINIMAL)
        yield base
        yield ExperimentSpec(
            run=base.run.replace_measurements(13),
            routes=("effective",),
            sweep=(4, 8, 100),
            output_path="some/dir",
            output_format="json",
            seed=42,
        )
        fancy = parse_config(
            "\n".join(
                [
                    "omega_a = 0.73",
                    "omega = 1.19",
                    "g = 0.031",
                    "T = 12.25",
                    "N = 7",
                    "field.kind = superposed",
                    "field.n = 3",
                    f"field.theta = {math.pi / 5}",
                    "field.phi = -2.25",
                    "atom.kind = bloch",
                    "atom.polar = 0.5",
                    "atom.azimuth = 3.25",
                    "truncation = 21",
                ]
            )
        )
        yield fancy

    def test_parse_serialize_round_trip(self):
        for spec in self.specs():
            assert parse_config(serialize_config(spec)) == spec

    def test_serialization_is_lossless_for_awkward_floats(self):
        spec = parse_config(MINIMAL.replace("g = 0.1", "g = 0.1000000000000000055511151231257827"))
        again = parse_config(serialize_config(spec))
        assert again.run.params.g == spec.run.params.g


class TestRunExperiment:
    def test_effective_route_with_fock_field_freezes_rho_ee(self, tmp_path):
        text = "\n".join(
            [
                "omega_a = 1.0",
                "omega = 1.0",
                "g = 0.1",
                "T = 5.0",
                "N = 25",
                "field.kind = fock",
                "field.n = 1",
                "atom.kind = excited",
                "routes = effective",
                f"output.path = {tmp_path}",
            ]
        )
        assert run_experiment(parse_config(text), out=io.StringIO()) == 0
        rows = read_rows(tmp_path / "trace_effective_N25.csv")
        assert len(rows) == 25
        assert all(abs(float(r[4]) - 1.0) < 1e-12 for r in rows)

    def test_exact_route_decoupled_fock_keeps_survival(self, tmp_path):
        text = "\n".join(
            [
                "omega_a = 1.0",
                "omega = 1.0",
                "g = 0.0",
                "T = 5.0",
                "N = 16",
                "field.kind = fock",
                "field.n = 0",
                "routes = exact",
                f"output.path = {tmp_path}",
            ]
        )
        assert run_experiment(parse_config(text), out=io.StringIO()) == 0
        rows = read_rows(tmp_path / "trace_exact_N16.csv")
        assert all(abs(float(r[9]) - 1.0) < 1e-12 for r in rows)

    def test_sweep_writes_convergence_footer(self, tmp_path):
        text = MINIMAL + "\n".join(
            ["sweep = 64,128,256,512", "routes = exact,effective", f"output.path = {tmp_path}"]
        )
        assert run_experiment(parse_config(text), out=io.StringIO()) == 0
        assert len(list(tmp_path.glob("trace_*.csv"))) == 8  # 4 N values x 2 routes
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert data[0] == "N,trace_distance_final"
        assert len(data) == 1 + 4 + 1
        label, value = data[-1].split(",")
        assert label == "fitted_order"
        assert -1.2 <= float(value) <= -0.8

    def test_output_is_deterministic(self, tmp_path):
        texts = []
        for sub in ("a", "b"):
            text = MINIMAL.replace("N = 100", "N = 9") + f"output.path = {tmp_path / sub}\n"
            assert run_experiment(parse_config(text), out=io.StringIO()) == 0
            texts.append(
                [p.read_bytes() for p in sorted((tmp_path / sub).glob("*.csv"))]
            )
        assert texts[0] == texts[1]

    def test_rows_satisfy_state_constraints(self, tmp_path):
        text = MINIMAL.replace("N = 100", "N = 20") + f"output.path = {tmp_path}\n"
        assert run_experiment(parse_config(text), out=io.StringIO()) == 0
        for csv_file in tmp_path.glob("*.csv"):
            for r in read_rows(csv_file):
                rho_ee, rho_gg = float(r[4]), float(r[5])
                re_eg, im_eg = float(r[6]), float(r[7])
                assert abs(rho_ee + rho_gg - 1.0) < 1e-9
                assert re_eg**2 + im_eg**2 <= rho_ee * rho_gg + 1e-9

    def test_json_sweep_carries_fitted_order(self, tmp_path):
        text = MINIMAL + "\n".join(
            [
                "sweep = 16,32,64",
                "routes = exact",
                f"output.path = {tmp_path}",
                "output.format = json",
            ]
        )
        assert run_experiment(parse_config(text), out=io.StringIO()) == 0
        doc = json.loads((tmp_path / "convergence.json").read_text())
        assert [r["N"] for r in doc["records"]] == [16, 32, 64]
        assert -1.3 <= doc["fitted_order"] <= -0.7

    def test_json_mirrors_csv_records(self, tmp_path):
        text = (
            MINIMAL.replace("N = 100", "N = 6")
            + f"output.path = {tmp_path}\noutput.format = json\nroutes = effective\n"
        )
        assert run_experiment(parse_config(text), out=io.StringIO()) == 0
        doc = json.loads((tmp_path / "trace_effective_N6.json").read_text())
        assert doc["metadata"]["route"] == "effective"
        assert len(doc["records"]) == 6
        first = doc["records"][0]
        assert set(first) == set(CSV_HEADER.split(","))
        assert first["step"] == 1

    def test_io_failure_reported(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        text = MINIMAL.replace("N = 100", "N = 2") + f"output.path = {blocker}/out\n"
        assert run_experiment(parse_config(text), out=io.StringIO()) == 1
        assert "output failed" in capsys.readouterr().err

    def test_survival_cutoff_reported_with_step(self, tmp_path, capsys):
        text = "\n".join(
            [
                "omega_a = 1.0",
                "omega = 1.0",
                "g = 0.1",
                f"T = {math.pi / 0.2}",
                "N = 1",
                "field.kind = fock",
                "field.n = 0",
                "atom.kind = excited",
                "routes = exact",
                f"output.path = {tmp_path}",
            ]
        )
        assert run_experiment(parse_config(text), out=io.StringIO()) == 1
        assert "step 1" in capsys.readouterr().err


class TestMainEntry:
    def test_run_subcommand(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(MINIMAL.replace("N = 100", "N = 8") + f"output.path = {tmp_path / 'out'}\n")
        assert main(["run", str(config), "--route", "effective"]) == 0
        out = capsys.readouterr().out
        assert "route=effective" in out
        assert (tmp_path / "out" / "trace_effective_N8.csv").exists()

    def test_run_ignores_config_sweep(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            MINIMAL.replace("N = 100", "N = 8")
            + f"sweep = 4,8\nroutes = effective\noutput.path = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 0
        assert not (tmp_path / "out" / "convergence.csv").exists()

    def test_sweep_subcommand_with_flag_values(self, tmp_path, capsys):
        config = tmp_path / "sweep.conf"
        config.write_text(
            MINIMAL.replace("N = 100", "N = 8")
            + f"routes = exact,effective\noutput.path = {tmp_path / 'out'}\n"
        )
        assert main(["sweep", str(config), "--n", "16,32,64"]) == 0
        assert "fitted_order" in capsys.readouterr().out
        assert (tmp_path / "out" / "convergence.csv").exists()

    def test_sweep_requires_values(self, tmp_path, capsys):
        config = tmp_path / "sweep.conf"
        config.write_text(MINIMAL + f"output.path = {tmp_path / 'out'}\n")
        assert main(["sweep", str(config)]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text(MINIMAL + "bogus = 1\n")
        assert main(["run", str(config)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        (
            "field.kind = coherent\nfield.alpha_re = 3\ntruncation = 5\n",
            "field.kind = fock\nfield.n = 9\ntruncation = 8\n",
        ),
        ids=("coherent", "fock"),
    )
    def test_config_that_cannot_run_reports_truncation(self, tmp_path, capsys, field):
        # both parse; the field state does not fit the truncation
        text = MINIMAL.replace("N = 100", "N = 4").split("field.kind")[0]
        config = tmp_path / "small.conf"
        config.write_text(text + field + f"output.path = {tmp_path / 'out'}\n")
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "truncation" in err
        assert "Traceback" not in err

    def test_missing_file_reported(self, capsys):
        assert main(["run", "no-such-file.conf"]) == 2
        assert "no-such-file" in capsys.readouterr().err

    def test_format_override(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            MINIMAL.replace("N = 100", "N = 5")
            + f"routes = effective\noutput.path = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config), "--format", "json"]) == 0
        assert (tmp_path / "out" / "trace_effective_N5.json").exists()
