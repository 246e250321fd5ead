"""Command-line front end: run configs, sweeps, and the invariant suite.

Config files are flat UTF-8 `key = value` lines with `#` comments:

    omega_a = 1.0
    omega = 1.0
    g = 0.1
    T = 5.0
    N = 100
    field.kind = coherent
    field.alpha_re = 1.0
    routes = exact,effective
    output.path = results

Unknown keys are rejected by name; every parse error carries the key and
line it came from. Output tables are deterministic: running the same spec
twice produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import checks
from .analysis import fit_convergence_order, purity, trace_distance
from .engine import (
    ROUTE_EFFECTIVE,
    ROUTE_EXACT,
    ROUTE_SUPEROPERATOR,
    ROUTES,
    SurvivalCutoffError,
    ZenoRunConfig,
    ZenoTrace,
    run_route,
)
from .models import JCParams
from .states import (
    AtomExcited,
    AtomGround,
    BlochVector,
    CoherentField,
    FockField,
    SuperposedFockField,
)

CSV_HEADER = "route,N,step,time,rho_ee,rho_gg,re_rho_eg,im_rho_eg,step_survival,cum_survival,purity"

_ROUTE_ALIASES = {
    "exact": ROUTE_EXACT,
    "super": ROUTE_SUPEROPERATOR,
    "superoperator": ROUTE_SUPEROPERATOR,
    "effective": ROUTE_EFFECTIVE,
}

_FIELD_KINDS = ("fock", "coherent", "superposed")
_ATOM_KINDS = ("ground", "excited", "bloch")

_ALL_KEYS = (
    "omega_a",
    "omega",
    "g",
    "T",
    "N",
    "field.kind",
    "field.alpha_re",
    "field.alpha_im",
    "field.n",
    "field.theta",
    "field.phi",
    "atom.kind",
    "atom.polar",
    "atom.azimuth",
    "truncation",
    "sweep",
    "routes",
    "output.path",
    "output.format",
    "seed",
)


class ConfigError(ValueError):
    """Configuration text failed validation; the message names key and line."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One validated experiment: a run config plus execution and output options."""

    run: ZenoRunConfig
    routes: tuple[str, ...]
    sweep: tuple[int, ...] | None
    output_path: str
    output_format: str
    seed: int | None = None

    def __post_init__(self):
        if not self.routes:
            raise ValueError("at least one route is required")
        for route in self.routes:
            if route not in ROUTES:
                raise ValueError(f"unknown route {route!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output format must be csv or json, got {self.output_format!r}")
        if self.sweep is not None:
            if len(self.sweep) < 1:
                raise ValueError("sweep must contain at least one N value")
            if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
                raise ValueError("sweep values must be strictly increasing")


def _fmt(value: float) -> str:
    """17 significant digits: lossless for double precision."""
    return format(float(value), ".17g")


class _RawConfig:
    """Key-value pairs with line numbers, consumed as they are read."""

    def __init__(self, text: str):
        self.pairs: dict[str, tuple[str, int]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _ALL_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in self.pairs:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            if not value:
                raise ConfigError(f"line {lineno}: key {key!r} has no value")
            self.pairs[key] = (value, lineno)

    def take(self, key: str, convert, default=None, required=False):
        if key not in self.pairs:
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default
        value, lineno = self.pairs.pop(key)
        try:
            return convert(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None

    def reject_leftovers(self, context: str):
        if self.pairs:
            key, (_, lineno) = next(iter(self.pairs.items()))
            raise ConfigError(f"line {lineno}: key {key!r} is not valid {context}")


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def _parse_positive_int(value: str) -> int:
    out = _parse_int(value)
    if out < 1:
        raise ValueError(f"expected a positive integer, got {out}")
    return out


def _parse_nonneg_int(value: str) -> int:
    out = _parse_int(value)
    if out < 0:
        raise ValueError(f"expected a nonnegative integer, got {out}")
    return out


def _parse_float(value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _parse_positive_float(value: str) -> float:
    out = _parse_float(value)
    if out <= 0:
        raise ValueError(f"expected a positive number, got {out!r}")
    return out


def _parse_routes(value: str) -> tuple[str, ...]:
    chosen = []
    for token in value.split(","):
        name = token.strip().lower()
        if name not in _ROUTE_ALIASES:
            raise ValueError(f"unknown route {name!r} (choose from exact, super, effective)")
        chosen.append(_ROUTE_ALIASES[name])
    # canonical order, duplicates collapsed
    return tuple(route for route in ROUTES if route in chosen)


def _parse_sweep(value: str) -> tuple[int, ...]:
    try:
        values = tuple(int(token.strip()) for token in value.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {value!r}") from None
    if any(n < 1 for n in values):
        raise ValueError("sweep values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep values must be strictly increasing")
    return values


def _parse_truncation(value: str):
    if value.lower() == "auto":
        return None
    dim = _parse_int(value)
    if dim < 2:
        raise ValueError(f"truncation must be at least 2 (or auto), got {dim}")
    return dim


def _parse_choice(options):
    def convert(value: str) -> str:
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {value!r}")
        return value

    return convert


def parse_config(text: str) -> ExperimentSpec:
    """Parse and validate a configuration document."""
    raw = _RawConfig(text)

    omega_a = raw.take("omega_a", _parse_float, required=True)
    omega = raw.take("omega", _parse_float, required=True)
    g = raw.take("g", _parse_float, required=True)
    total_time = raw.take("T", _parse_positive_float, required=True)
    num_measurements = raw.take("N", _parse_positive_int, required=True)

    field_kind = raw.take("field.kind", _parse_choice(_FIELD_KINDS), required=True)
    if field_kind == "fock":
        field_spec = FockField(raw.take("field.n", _parse_nonneg_int, required=True))
    elif field_kind == "coherent":
        alpha_re = raw.take("field.alpha_re", _parse_float, required=True)
        alpha_im = raw.take("field.alpha_im", _parse_float, default=0.0)
        field_spec = CoherentField(complex(alpha_re, alpha_im))
    else:
        field_spec = SuperposedFockField(
            n=raw.take("field.n", _parse_nonneg_int, required=True),
            theta=raw.take("field.theta", _parse_float, required=True),
            phi=raw.take("field.phi", _parse_float, default=0.0),
        )

    atom_kind = raw.take("atom.kind", _parse_choice(_ATOM_KINDS), default="ground")
    if atom_kind == "ground":
        atom_spec = AtomGround()
    elif atom_kind == "excited":
        atom_spec = AtomExcited()
    else:
        atom_spec = BlochVector(
            polar=raw.take("atom.polar", _parse_float, required=True),
            azimuth=raw.take("atom.azimuth", _parse_float, default=0.0),
        )

    truncation = raw.take("truncation", _parse_truncation, default=None)
    sweep = raw.take("sweep", _parse_sweep, default=None)
    routes = raw.take("routes", _parse_routes, default=ROUTES)
    output_path = raw.take("output.path", str, default="zeno-results")
    output_format = raw.take("output.format", _parse_choice(("csv", "json")), default="csv")
    seed = raw.take("seed", _parse_int, default=None)

    raw.reject_leftovers(f"for field.kind={field_kind} / atom.kind={atom_kind}")

    try:
        run = ZenoRunConfig(
            params=JCParams(omega_a=omega_a, omega=omega, g=g),
            field_spec=field_spec,
            atom_spec=atom_spec,
            total_time=total_time,
            num_measurements=num_measurements,
            truncation=truncation,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        return ExperimentSpec(
            run=run,
            routes=routes,
            sweep=sweep,
            output_path=output_path,
            output_format=output_format,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_config_lines(spec: ExperimentSpec) -> list[str]:
    run = spec.run
    lines = [
        f"omega_a = {_fmt(run.params.omega_a)}",
        f"omega = {_fmt(run.params.omega)}",
        f"g = {_fmt(run.params.g)}",
        f"T = {_fmt(run.total_time)}",
        f"N = {run.num_measurements}",
    ]
    field = run.field_spec
    if isinstance(field, FockField):
        lines += [f"field.kind = fock", f"field.n = {field.n}"]
    elif isinstance(field, CoherentField):
        lines += [
            "field.kind = coherent",
            f"field.alpha_re = {_fmt(field.alpha.real)}",
            f"field.alpha_im = {_fmt(field.alpha.imag)}",
        ]
    else:
        lines += [
            "field.kind = superposed",
            f"field.n = {field.n}",
            f"field.theta = {_fmt(field.theta)}",
            f"field.phi = {_fmt(field.phi)}",
        ]
    atom = run.atom_spec
    if isinstance(atom, AtomGround):
        lines.append("atom.kind = ground")
    elif isinstance(atom, AtomExcited):
        lines.append("atom.kind = excited")
    else:
        lines += [
            "atom.kind = bloch",
            f"atom.polar = {_fmt(atom.polar)}",
            f"atom.azimuth = {_fmt(atom.azimuth)}",
        ]
    lines.append(f"truncation = {'auto' if run.truncation is None else run.truncation}")
    return lines


def serialize_config(spec: ExperimentSpec) -> str:
    """Emit a configuration document that parses back to an equal spec."""
    lines = _run_config_lines(spec)
    if spec.sweep is not None:
        lines.append("sweep = " + ",".join(str(n) for n in spec.sweep))
    lines.append("routes = " + ",".join(spec.routes))
    lines.append(f"output.path = {spec.output_path}")
    lines.append(f"output.format = {spec.output_format}")
    if spec.seed is not None:
        lines.append(f"seed = {spec.seed}")
    return "\n".join(lines) + "\n"


def _trace_records(trace: ZenoTrace):
    for step in trace.steps:
        m = step.atom_state.matrix
        yield {
            "route": trace.route,
            "N": trace.config.num_measurements,
            "step": step.index,
            "time": step.time,
            "rho_ee": m[0, 0].real,
            "rho_gg": m[1, 1].real,
            "re_rho_eg": m[0, 1].real,
            "im_rho_eg": m[0, 1].imag,
            "step_survival": step.survival,
            "cum_survival": step.cumulative_survival,
            "purity": purity(step.atom_state),
        }


def _metadata_lines(spec: ExperimentSpec, trace: ZenoTrace) -> list[str]:
    lines = _run_config_lines(spec)
    # N may differ from the base config inside a sweep
    lines = [
        f"N = {trace.config.num_measurements}" if line.startswith("N = ") else line for line in lines
    ]
    lines.append(f"route = {trace.route}")
    lines.append(f"resolved_truncation = {trace.truncation}")
    return lines


def _write_trace(path: Path, spec: ExperimentSpec, trace: ZenoTrace):
    if spec.output_format == "csv":
        lines = [f"# {line}" for line in _metadata_lines(spec, trace)]
        lines.append(CSV_HEADER)
        for rec in _trace_records(trace):
            lines.append(
                ",".join(
                    [
                        rec["route"],
                        str(rec["N"]),
                        str(rec["step"]),
                        _fmt(rec["time"]),
                        _fmt(rec["rho_ee"]),
                        _fmt(rec["rho_gg"]),
                        _fmt(rec["re_rho_eg"]),
                        _fmt(rec["im_rho_eg"]),
                        _fmt(rec["step_survival"]),
                        _fmt(rec["cum_survival"]),
                        _fmt(rec["purity"]),
                    ]
                )
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    else:
        doc = {
            "metadata": dict(line.split(" = ", 1) for line in _metadata_lines(spec, trace)),
            "records": list(_trace_records(trace)),
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")


def _write_convergence(path: Path, spec: ExperimentSpec, points, fitted_order):
    if spec.output_format == "csv":
        lines = [f"# {line}" for line in _run_config_lines(spec)]
        lines.append("N,trace_distance_final")
        for n, err in points:
            lines.append(f"{n},{_fmt(err)}")
        lines.append(f"fitted_order,{_fmt(fitted_order)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    else:
        doc = {
            "metadata": dict(line.split(" = ", 1) for line in _run_config_lines(spec)),
            "records": [{"N": n, "trace_distance_final": err} for n, err in points],
            "fitted_order": fitted_order,
        }
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8", newline="\n")


def run_experiment(spec: ExperimentSpec, out=None) -> int:
    """Execute a spec, writing one trace table per route and N.

    For sweeps, a convergence table (final-state trace distance to the
    many-measurement limit, per N) is written alongside the traces. Returns
    a process exit status; engine aborts and I/O failures are reported
    rather than raised.
    """
    out = sys.stdout if out is None else out
    out_dir = Path(spec.output_path)
    ext = spec.output_format
    n_values = spec.sweep if spec.sweep is not None else (spec.run.num_measurements,)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        reference = None
        if spec.sweep is not None:
            reference = run_route(spec.run.replace_measurements(1), ROUTE_EFFECTIVE).final_atom_state

        convergence_route = next(
            (r for r in (ROUTE_EXACT, ROUTE_SUPEROPERATOR) if r in spec.routes), None
        )
        convergence_points = []
        for n in n_values:
            cfg = spec.run.replace_measurements(n)
            for route in spec.routes:
                trace = run_route(cfg, route)
                _write_trace(out_dir / f"trace_{route}_N{n}.{ext}", spec, trace)
                final = trace.final_atom_state
                print(
                    f"route={route} N={n} rho_ee={final.matrix[0, 0].real:.6f} "
                    f"cum_survival={trace.steps[-1].cumulative_survival:.6f}",
                    file=out,
                )
                if route == convergence_route and reference is not None:
                    convergence_points.append((n, trace_distance(final, reference)))

        if spec.sweep is not None and len(convergence_points) >= 3:
            report = fit_convergence_order(convergence_points)
            _write_convergence(
                out_dir / f"convergence.{ext}", spec, convergence_points, report.fitted_order
            )
            print(
                f"convergence: fitted_order={report.fitted_order:.4f} "
                f"residual={report.fit_residual:.4f} route={convergence_route}",
                file=out,
            )
    except SurvivalCutoffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: output failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_spec(args) -> ExperimentSpec:
    text = Path(args.config).read_text(encoding="utf-8")
    spec = parse_config(text)
    overrides = {}
    if getattr(args, "route", None):
        overrides["routes"] = _parse_routes(",".join(args.route))
    if getattr(args, "out", None):
        overrides["output_path"] = args.out
    if getattr(args, "format", None):
        overrides["output_format"] = args.format
    return replace(spec, **overrides) if overrides else spec


def _cmd_run(args) -> int:
    spec = _load_spec(args)
    if spec.sweep is not None:
        spec = replace(spec, sweep=None)
    return run_experiment(spec)


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    sweep = spec.sweep
    if args.n:
        sweep = _parse_sweep(args.n)
    if sweep is None:
        print("error: no sweep values; pass --n or put 'sweep = ...' in the config", file=sys.stderr)
        return 2
    return run_experiment(replace(spec, sweep=sweep))


def _cmd_check(args) -> int:
    results = checks.run_all_checks(seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        failures += 0 if r.passed else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeno",
        description="Measurement-driven (Zeno) dynamics of the Jaynes-Cummings model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a single run from a config file")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument(
        "--route",
        action="append",
        choices=sorted(_ROUTE_ALIASES),
        help="restrict to a route (repeatable)",
    )
    run_p.add_argument("--out", help="output directory (overrides output.path)")
    run_p.add_argument("--format", choices=("csv", "json"), help="output format")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the config for a list of measurement counts")
    sweep_p.add_argument("config", help="path to a key = value config file")
    sweep_p.add_argument("--n", help="comma-separated, strictly increasing N values")
    sweep_p.add_argument(
        "--route",
        action="append",
        choices=sorted(_ROUTE_ALIASES),
        help="restrict to a route (repeatable)",
    )
    sweep_p.add_argument("--out", help="output directory (overrides output.path)")
    sweep_p.add_argument("--format", choices=("csv", "json"), help="output format")
    sweep_p.set_defaults(func=_cmd_sweep)

    check_p = sub.add_parser("check", help="run the built-in invariant suite")
    check_p.add_argument("--seed", type=int, default=0, help="seed for the sampled properties")
    check_p.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ConfigError is a ValueError, as is a parsed config the truncation cannot hold
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
