"""Independent reference for the tables a `zeno` command writes.

Only numpy and scipy are used; none of the library's code paths are. The
Jaynes-Cummings Hamiltonian is never built as a dense matrix: it is applied
to vectors through its ladder structure, and it is exponentiated in closed
form on its 2x2 excitation blocks {|e, n>, |g, n+1>}.

    exact route          rho -> K rho K† / tr(K rho K†), K = <b| U(dt) |b>
    superoperator route  scipy expm of the 4x4 step generator built from
                         <b|H|b> and <b|H²|b>
    effective route      closed-form 2x2 unitary of <b|H|b>

check_outputs compares every row of every table a command wrote against
these predictions, to the tolerances below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import Command, Physics

# The largest disagreement measured on the workload pools is 3e-12 on rho
# entries and 1.3e-11 relative on cumulative survival (large-field); the
# tolerances leave two orders of magnitude of headroom and still catch any
# change of the physics or of the 17-digit table format.
STATE_TOL = 1e-9  # absolute, on rho entries and purity
SURVIVAL_RTOL = 1e-8  # relative, on step and cumulative survivals
TIME_RTOL = 1e-12
DISTANCE_RTOL = 1e-6  # relative, on convergence-table trace distances
ORDER_TOL = 1e-6  # absolute, on the fitted convergence order

CSV_COLUMNS = (
    "route", "N", "step", "time", "rho_ee", "rho_gg", "re_rho_eg", "im_rho_eg",
    "step_survival", "cum_survival", "purity",
)
ROUTE_NAMES = {"exact": "exact", "super": "superoperator", "effective": "effective"}


@dataclass(frozen=True)
class Table:
    """Predicted per-step columns of one route at one N."""

    route: str
    n: int
    times: np.ndarray
    rho: np.ndarray  # (N, 2, 2)
    step_survival: np.ndarray
    cum_survival: np.ndarray

    @property
    def purity(self) -> np.ndarray:
        return np.einsum("kij,kji->k", self.rho, self.rho).real


def field_vector(field: tuple, d: int) -> np.ndarray:
    """Field state on d Fock levels; coherent states renormalized after truncation."""
    b = np.zeros(d, dtype=np.complex128)
    kind = field[0]
    if kind == "fock":
        b[field[1]] = 1.0
    elif kind == "superposed":
        n, theta, phi = field[1:]
        b[n] = math.cos(theta)
        b[n + 1] = math.sin(theta) * complex(math.cos(phi), math.sin(phi))
    else:
        alpha = complex(field[1], field[2])
        if alpha == 0:
            b[0] = 1.0
        else:
            n = np.arange(d)
            log_mag = n * math.log(abs(alpha)) - 0.5 * np.array([math.lgamma(k + 1.0) for k in n])
            b = np.exp(log_mag - log_mag.max() + 1j * n * np.angle(alpha))
    return b / np.linalg.norm(b)


def atom_density(polar: float, azimuth: float) -> np.ndarray:
    """Pure Bloch state in the (excited, ground) basis; polar = 0 is |e>."""
    ket = np.array([math.cos(polar / 2), complex(math.cos(azimuth), math.sin(azimuth)) * math.sin(polar / 2)])
    return np.outer(ket, ket.conj())


def apply_h(p: Physics, ve: np.ndarray, vg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H acting on the composite vector |e>(x)ve + |g>(x)vg, from the ladder action.

    sigma_+ a maps |g, m+1> to sqrt(m+1) |e, m>; sigma_- a† maps |e, m> to
    sqrt(m+1) |g, m+1>, and drops the top level of the truncated space.
    """
    m = np.arange(ve.size)
    root = np.sqrt(m[1:])
    oe = (0.5 * p.omega_a + p.omega * m) * ve
    og = (-0.5 * p.omega_a + p.omega * m) * vg
    oe[:-1] += p.g * root * vg[1:]
    og[1:] += p.g * root * ve[:-1]
    return oe, og


def _atom_basis(b: np.ndarray):
    zero = np.zeros_like(b)
    return ((b, zero), (zero, b))  # |e>|b>, |g>|b>


def field_averages(p: Physics, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<i,b| H |j,b> and <i,b| H² |j,b> = <H(i,b)| H(j,b)>."""
    basis = _atom_basis(b)
    images = [apply_h(p, *v) for v in basis]
    h = np.empty((2, 2), dtype=np.complex128)
    h2 = np.empty((2, 2), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            h[i, j] = np.vdot(basis[i][0], images[j][0]) + np.vdot(basis[i][1], images[j][1])
            h2[i, j] = np.vdot(images[i][0], images[j][0]) + np.vdot(images[i][1], images[j][1])
    return h, h2


def _expm_2x2_hermitian(h00, h11, h01, t):
    """exp(-i t [[h00, h01], [conj(h01), h11]]) entries, vectorized over blocks."""
    mean = 0.5 * (h00 + h11)
    delta = 0.5 * (h00 - h11)
    omega = np.sqrt(delta**2 + np.abs(h01) ** 2)
    phase = np.exp(-1j * mean * t)
    cos = np.cos(omega * t)
    sinc = np.where(omega > 0, np.sin(omega * t) / np.where(omega > 0, omega, 1.0), t)
    u00 = phase * (cos - 1j * sinc * delta)
    u11 = phase * (cos + 1j * sinc * delta)
    u01 = phase * (-1j * sinc * h01)
    u10 = phase * (-1j * sinc * np.conj(h01))
    return u00, u01, u10, u11


def apply_u(p: Physics, ve: np.ndarray, vg: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i H t) on |e>(x)ve + |g>(x)vg, block by block.

    Block n couples |e, n> and |g, n+1>; |g, 0> and |e, d-1> are uncoupled.
    """
    d = ve.size
    n = np.arange(d - 1)
    u00, u01, u10, u11 = _expm_2x2_hermitian(
        0.5 * p.omega_a + p.omega * n, -0.5 * p.omega_a + p.omega * (n + 1), p.g * np.sqrt(n + 1.0), t
    )
    oe = np.empty_like(ve)
    og = np.empty_like(vg)
    oe[:-1] = u00 * ve[:-1] + u01 * vg[1:]
    og[1:] = u10 * ve[:-1] + u11 * vg[1:]
    og[0] = np.exp(0.5j * p.omega_a * t) * vg[0]
    oe[-1] = np.exp(-1j * (0.5 * p.omega_a + p.omega * (d - 1)) * t) * ve[-1]
    return oe, og


def kraus(p: Physics, b: np.ndarray, dt: float) -> np.ndarray:
    """K_ij = <i,b| U(dt) |j,b>: the atomic operator of one evolve-and-project step."""
    basis = _atom_basis(b)
    images = [apply_u(p, *v, dt) for v in basis]
    return np.array(
        [[np.vdot(basis[i][0], images[j][0]) + np.vdot(basis[i][1], images[j][1]) for j in range(2)] for i in range(2)]
    )


def _iterate(step, rho0: np.ndarray, n: int):
    rho = np.empty((n, 2, 2), dtype=np.complex128)
    surv = np.empty(n)
    m = rho0
    for k in range(n):
        m, surv[k] = step(m)
        m = m / surv[k]
        rho[k] = m
    return rho, surv


def predict(p: Physics, route: str, n: int) -> Table:
    """The table one route writes for n measurements."""
    b = field_vector(p.field, p.truncation)
    rho0 = atom_density(p.polar, p.azimuth)
    dt = p.total_time / n
    if route == "exact":
        k = kraus(p, b, dt)

        def step(m):
            out = k @ m @ k.conj().T
            return out, float(np.trace(out).real)

        rho, surv = _iterate(step, rho0, n)
    elif route == "super":
        h, h2 = field_averages(p, b)
        var = h2 - h @ h
        # generator on the row-major flattening, built column by column
        gen = np.empty((4, 4), dtype=np.complex128)
        for col in range(4):
            e = np.zeros(4, dtype=np.complex128)
            e[col] = 1.0
            x = e.reshape(2, 2)
            gen[:, col] = (-1j * dt * (h @ x - x @ h) - 0.5 * dt * dt * (var @ x + x @ var)).ravel()
        step_map = scipy.linalg.expm(gen)

        def step(m):
            out = (step_map @ m.ravel()).reshape(2, 2)
            return out, float(np.trace(out).real)

        rho, surv = _iterate(step, rho0, n)
    else:
        h, _ = field_averages(p, b)
        times = dt * np.arange(1, n + 1)
        u00, u01, u10, u11 = _expm_2x2_hermitian(h[0, 0].real, h[1, 1].real, h[0, 1], times)
        u = np.stack([np.stack([u00, u01], -1), np.stack([u10, u11], -1)], -2)
        rho = u @ rho0 @ np.conj(np.swapaxes(u, -1, -2))
        surv = np.ones(n)
    return Table(
        route=ROUTE_NAMES[route],
        n=n,
        times=dt * np.arange(1, n + 1),
        rho=rho,
        step_survival=surv,
        cum_survival=np.cumprod(surv),
    )


def trace_distance_2x2(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b for unit-trace 2x2 Hermitian matrices."""
    d = a - b
    return float(math.sqrt((0.5 * (d[0, 0] - d[1, 1]).real) ** 2 + abs(d[0, 1]) ** 2))


def fit_order(points) -> float:
    """Least-squares slope of log(error) against log(N)."""
    if any(e <= 0 for _, e in points):
        return float("nan")
    x = np.log([n for n, _ in points])
    y = np.log([e for _, e in points])
    x0 = x - x.mean()
    return float((x0 * (y - y.mean())).sum() / (x0 * x0).sum())


@dataclass
class Expected:
    """Everything one command should write: trace tables and, for sweeps, the convergence table."""

    tables: dict  # file stem -> Table
    convergence: list | None  # [(N, distance)] or None
    fitted_order: float | None


def expected(p: Physics) -> Expected:
    tables = {}
    for n in p.n_values:
        for route in p.routes:
            t = predict(p, route, n)
            tables[f"trace_{t.route}_N{n}"] = t
    if not p.sweep:
        return Expected(tables, None, None)
    limit = predict(p, "effective", 1).rho[-1]
    conv_route = next((r for r in ("exact", "super") if r in p.routes), None)
    points = [(n, trace_distance_2x2(tables[f"trace_{ROUTE_NAMES[conv_route]}_N{n}"].rho[-1], limit)) for n in p.n_values]
    if len(points) < 3:
        return Expected(tables, None, None)
    return Expected(tables, points, fit_order(points))


# ----------------------------------------------------------------------------- table checks


def _close(a: float, b: float, atol: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def _read_trace(path: Path, fmt: str) -> tuple[list, np.ndarray]:
    """A trace table as (label rows of route, N, step) and an (N, 8) array of the numeric columns."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        rows = [[rec[c] for c in CSV_COLUMNS] for rec in json.loads(text)["records"]]
    else:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        if tuple(lines[0].split(",")) != CSV_COLUMNS:
            raise ValueError(f"header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
    labels = [(str(r[0]), int(r[1]), int(r[2])) for r in rows]
    values = np.array([[float(x) for x in r[3:]] for r in rows]).reshape(len(rows), len(CSV_COLUMNS) - 3)
    return labels, values


def _check_trace(labels: list, values: np.ndarray, t: Table) -> list[str]:
    if len(labels) != t.n:
        return [f"{len(labels)} rows, expected {t.n}"]
    want = np.column_stack(
        [
            t.times,
            t.rho[:, 0, 0].real,
            t.rho[:, 1, 1].real,
            t.rho[:, 0, 1].real,
            t.rho[:, 0, 1].imag,
            t.step_survival,
            t.cum_survival,
            t.purity,
        ]
    )
    atol = np.array([0.0, STATE_TOL, STATE_TOL, STATE_TOL, STATE_TOL, 0.0, 0.0, STATE_TOL])
    rtol = np.array([TIME_RTOL, 0.0, 0.0, 0.0, 0.0, SURVIVAL_RTOL, SURVIVAL_RTOL, 0.0])
    bad = ~(np.abs(values - want) <= atol + rtol * np.abs(want))
    errors = [
        f"row {k + 1}: {CSV_COLUMNS[3 + c]} {float(values[k, c])!r} != {float(want[k, c])!r}"
        for k, c in np.argwhere(bad)[:5]
    ]
    wrong_labels = [k for k, lab in enumerate(labels) if lab != (t.route, t.n, k + 1)]
    errors += [f"row {k + 1}: labels {labels[k]}" for k in wrong_labels[:5]]
    return errors


def _check_convergence(path: Path, fmt: str, exp: Expected) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        points = [(int(r["N"]), float(r["trace_distance_final"])) for r in doc["records"]]
        order = float(doc["fitted_order"])
    else:
        rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
        if rows[0] != ["N", "trace_distance_final"] or rows[-1][0] != "fitted_order":
            return ["convergence table layout"]
        points = [(int(n), float(e)) for n, e in rows[1:-1]]
        order = float(rows[-1][1])
    errors = []
    if [n for n, _ in points] != [n for n, _ in exp.convergence]:
        errors.append(f"convergence N values {[n for n, _ in points]}")
    for (n, got), (_, want) in zip(points, exp.convergence):
        if not _close(got, want, 1e-15, DISTANCE_RTOL):
            errors.append(f"convergence N={n}: {got!r} != {want!r}")
    if not _close(order, exp.fitted_order, ORDER_TOL, 0.0):
        errors.append(f"fitted order {order!r} != {exp.fitted_order!r}")
    return errors


@dataclass
class Outcome:
    """Verdict on one command: mismatches (empty when correct) and what it wrote."""

    errors: list
    rows: int = 0
    bytes: int = 0


def check_outputs(cmd: Command, status: int, stdout: str, out_dir: Path, exp: Expected | None) -> Outcome:
    """Compare one command's exit status, stdout and written tables with the reference."""
    if status != 0:
        return Outcome([f"exit status {status}"])
    if cmd.verb == "check":
        lines = stdout.splitlines()
        verdicts = [line[:4] for line in lines[:-1]]
        if not verdicts or any(v != "PASS" for v in verdicts):
            return Outcome([line for line in lines if not line.startswith("PASS")] or ["no PASS lines"])
        return Outcome([])
    p = cmd.physics
    ext = p.output_format
    want = {f"{stem}.{ext}" for stem in exp.tables}
    if exp.convergence is not None:
        want.add(f"convergence.{ext}")
    files = {f.name: f for f in out_dir.iterdir()} if out_dir.is_dir() else {}
    if set(files) != want:
        return Outcome([f"files {sorted(files)} != {sorted(want)}"])
    errors = []
    rows = 0
    for stem, table in exp.tables.items():
        try:
            labels, values = _read_trace(files[f"{stem}.{ext}"], ext)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"{stem}: unreadable table: {exc}")
            continue
        rows += len(labels)
        errors += [f"{stem}: {e}" for e in _check_trace(labels, values, table)]
    if exp.convergence is not None:
        try:
            errors += _check_convergence(files[f"convergence.{ext}"], ext, exp)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors.append(f"convergence: unreadable table: {exc}")
        rows += len(exp.convergence)
    return Outcome(errors, rows=rows, bytes=sum(f.stat().st_size for f in files.values()))
