"""Seeded workload generator: the `zeno` commands each workload runs.

A workload is a pool of POOL_SIZE commands that the benchmark cycles
through. The seed varies the physics of each command (field phase, Bloch
angles, coupling g in [0.05, 0.2], detuning within +-0.1) but never the
truncation d, the measurement counts N or the routes, so every command of a
workload costs the same and per-command timings are homogeneous samples.

The program receives only the generated config files (and, for `check`, a
seed on the command line). `Command.physics` keeps the generated values
for the independent reference in reference.py.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("exact-route", "fast-route-sweep", "large-field", "check")

POOL_SIZE = 8

TOTAL_TIME = 5.0

# exact-route: the 2d x 2d composite step dominates.
EXACT_TRUNCATION = 40
EXACT_N = 128
# fast-route-sweep: 2x2 step loops, per-step validation and CSV rows dominate.
SWEEP_TRUNCATION = 20
SWEEP_N = (64, 256, 1024)
# large-field: set-up (Hamiltonian build, H @ H) dominates. The truncation is
# pinned rather than left to `auto` so the workload cannot change size when
# the library's truncation policy changes; 394 is what `auto` picks for |alpha| = 16.
LARGE_ALPHA = 16.0
LARGE_TRUNCATION = 394
LARGE_N = 256


@dataclass(frozen=True)
class Physics:
    """Everything the reference needs to predict a run's tables."""

    omega_a: float
    omega: float
    g: float
    total_time: float
    n_values: tuple[int, ...]
    field: tuple  # ("coherent", re, im) | ("fock", n) | ("superposed", n, theta, phi)
    polar: float
    azimuth: float
    truncation: int
    routes: tuple[str, ...]  # "exact" | "super" | "effective", in the program's canonical order
    output_format: str
    sweep: bool


@dataclass(frozen=True)
class Command:
    """One `zeno` invocation: its verb, config text and expected physics."""

    verb: str  # "run" | "sweep" | "check"
    config: str  # config file text; empty for `check`
    check_seed: int | None = None
    physics: Physics | None = None

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        if self.verb == "check":
            return ["check", "--seed", str(self.check_seed)]
        return [self.verb, config_path, "--out", out_dir]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _config_text(p: Physics) -> str:
    lines = [
        f"omega_a = {p.omega_a!r}",
        f"omega = {p.omega!r}",
        f"g = {p.g!r}",
        f"T = {p.total_time!r}",
        f"N = {p.n_values[0]}",
    ]
    kind = p.field[0]
    lines.append(f"field.kind = {kind}")
    if kind == "coherent":
        lines += [f"field.alpha_re = {p.field[1]!r}", f"field.alpha_im = {p.field[2]!r}"]
    elif kind == "fock":
        lines.append(f"field.n = {p.field[1]}")
    else:
        lines += [f"field.n = {p.field[1]}", f"field.theta = {p.field[2]!r}", f"field.phi = {p.field[3]!r}"]
    lines += [
        "atom.kind = bloch",
        f"atom.polar = {p.polar!r}",
        f"atom.azimuth = {p.azimuth!r}",
        f"truncation = {p.truncation}",
    ]
    if p.sweep:
        lines.append("sweep = " + ",".join(str(n) for n in p.n_values))
    lines += [
        "routes = " + ",".join(p.routes),
        "output.path = zeno-results",
        f"output.format = {p.output_format}",
    ]
    return "\n".join(lines) + "\n"


def _coherent(rng, radius_lo: float, radius_hi: float) -> tuple:
    r = float(rng.uniform(radius_lo, radius_hi))
    phase = float(rng.uniform(-math.pi, math.pi))
    return ("coherent", r * math.cos(phase), r * math.sin(phase))


def _small_field(rng, radius_hi: float, n_max: int) -> tuple:
    kind = ("coherent", "fock", "superposed")[int(rng.integers(3))]
    if kind == "coherent":
        return _coherent(rng, 0.3, radius_hi)
    if kind == "fock":
        return ("fock", int(rng.integers(0, n_max + 1)))
    return (
        "superposed",
        int(rng.integers(0, n_max)),
        float(rng.uniform(0.0, math.pi)),
        float(rng.uniform(-math.pi, math.pi)),
    )


def _physics(rng, field, truncation, n_values, routes, fmt, sweep) -> Physics:
    return Physics(
        omega_a=1.0 + float(rng.uniform(-0.1, 0.1)),
        omega=1.0,
        g=float(rng.uniform(0.05, 0.2)),
        total_time=TOTAL_TIME,
        n_values=n_values,
        field=field,
        polar=float(rng.uniform(0.0, math.pi)),
        azimuth=float(rng.uniform(-math.pi, math.pi)),
        truncation=truncation,
        routes=routes,
        output_format=fmt,
        sweep=sweep,
    )


def generate(workload: str, seed: int) -> list[Command]:
    """The workload's command pool; the same seed yields the same commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    rng = _rng(workload, seed)
    pool = []
    for _ in range(POOL_SIZE):
        if workload == "check":
            pool.append(Command(verb="check", config="", check_seed=int(rng.integers(0, 2**31 - 1))))
            continue
        if workload == "exact-route":
            # |alpha| <= 2.4 and n <= 30 keep the state well inside d = 40
            field = _small_field(rng, 2.4, 30)
            p = _physics(rng, field, EXACT_TRUNCATION, (EXACT_N,), ("exact",), "json", False)
            verb = "run"
        elif workload == "fast-route-sweep":
            # |alpha| <= 1.5 keeps the discarded coherent tail below 1e-8 at d = 20
            field = _small_field(rng, 1.5, 15)
            p = _physics(rng, field, SWEEP_TRUNCATION, SWEEP_N, ("super", "effective"), "csv", True)
            verb = "sweep"
        else:
            field = _coherent(rng, LARGE_ALPHA, LARGE_ALPHA)
            p = _physics(rng, field, LARGE_TRUNCATION, (LARGE_N,), ("super", "effective"), "csv", False)
            verb = "run"
        pool.append(Command(verb=verb, config=_config_text(p), physics=p))
    return pool


def digest(pool: list[Command]) -> str:
    """SHA-256 over every generated input, so two results can be shown to share inputs."""
    h = hashlib.sha256()
    for i, cmd in enumerate(pool):
        h.update(f"{i}\0{' '.join(cmd.argv('cfg', 'out'))}\0{cmd.config}\0".encode())
    return h.hexdigest()
