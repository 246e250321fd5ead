"""The benchmark's measurement loop, metrics and report (entry point: run.py).

Commands go in-process through `zenojc.cli.main`, one after the other,
cycling through the workload's generated pool until the commands have taken
`--seconds` of wall time. After each command, outside the timed interval,
its tables are checked against the independent reference.

How a command is timed. The host this benchmark was built on runs other
tenants' virtual machines on the same cores, and its speed drifts by up to
1.7x in phases of 10-20 s. The drift shows in wall time and in CPU time
alike: the median per 15-20 s window spread by 13-51% (IQR over median)
while the program's work did not change. So each timed interval is paired
with a fixed calibration kernel (`calibrate`) run just before it, on the
same pinned CPU, and every time is reported as

    CAL_NOMINAL_S * (CPU time of the interval) / (CPU time of the kernel)

that is, in seconds of a machine on which the kernel takes CAL_NOMINAL_S.
Paired this way, the median command time of ten 20 s runs per workload
spread by 1-7%. A change that makes the program faster moves the figure by
the same factor. The raw CPU and wall medians are printed alongside.
"""

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_RUNS = 5
WARMUP_COMMANDS = 2
CHILD_TIMEOUT_S = 60.0

# CPU time of calibrate() on the 2-core Xeon the benchmark was defined on,
# in its typical state; it only sets the scale of the reported seconds.
CAL_NOMINAL_S = 0.005
_CAL_RNG = np.random.default_rng(12345)
_CAL_STEP = np.eye(4, dtype=np.complex128) + 0.01 * _CAL_RNG.normal(size=(4, 4))
_CAL_DENSE = _CAL_RNG.normal(size=(128, 128)) + 1j * _CAL_RNG.normal(size=(128, 128))


class Terminated(BaseException):
    """SIGTERM arrived; unlike SystemExit, a command's own exit handling does not catch it."""


def terminate(signum, frame):
    raise Terminated(signum)


def calibrate() -> float:
    """CPU seconds of a fixed kernel: interpreter-bound 2x2 steps and dense complex products.

    The mix resembles the library's: small numpy calls driven from Python,
    and BLAS on mid-sized complex matrices. Adding a memory-bound pass made
    exact-route track the host's drift worse (10% spread instead of 3%).
    """
    start = time.process_time()
    v = np.array([0.5, 0.1j, -0.1j, 0.5])
    for _ in range(400):
        m = (_CAL_STEP @ v).reshape(2, 2)
        v = (0.5 * (m + m.conj().T) / float(np.trace(m).real)).ravel()
    x = _CAL_DENSE
    for _ in range(6):
        x = _CAL_DENSE @ x
        x /= np.abs(x).max()
    return time.process_time() - start


def _int_at_least(low: int):
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return convert


# ----------------------------------------------------------------------------- environment


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _openblas() -> dict:
    """Version and threads in effect of each OpenBLAS loaded (numpy and scipy ship their own)."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        found = {}
        for key, restype in (("get_config", ctypes.c_char_p), ("get_num_threads", ctypes.c_int)):
            for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""), ("openblas_", "64_"), ("openblas_", "")):
                fn = getattr(handle, prefix + key + suffix, None)
                if fn is not None:
                    fn.restype, fn.argtypes = restype, []
                    found[key] = fn()
                    break
        config = found.get("get_config")
        out[Path(lib).name] = {
            "config": config.decode(errors="replace") if config else None,
            "threads": found.get("get_num_threads"),
        }
    return out


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
    }


# ----------------------------------------------------------------------------- running commands


def spawn(mode: str, workdir: Path) -> tuple[float, int, float]:
    """Run child.py in a fresh interpreter: (CPU seconds, exit status, peak RSS in MB).

    The peak RSS is the child's own VmHWM, which it writes to WORKDIR/peak_rss_kb.
    wait4's ru_maxrss would not do: exec carries the spawning process's
    high-water mark into it, so it reads at least the benchmark's own size.
    """
    rss_file = workdir / "peak_rss_kb"
    rss_file.unlink(missing_ok=True)
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, str(CHILD), mode, str(workdir)],
        os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    done = 0
    try:
        while not done:
            if time.perf_counter() - start > CHILD_TIMEOUT_S:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.001)
            done, status, usage = os.wait4(pid, os.WNOHANG)
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    rss_kb = float(rss_file.read_text()) if rss_file.exists() else math.nan
    return usage.ru_utime + usage.ru_stime, os.waitstatus_to_exitcode(status), rss_kb * 1024 / 1e6


class Runner:
    """Runs pool commands in-process, times them, and checks their output."""

    def __init__(self, cli, pool: list, workdir: Path):
        self.cli = cli
        self.pool = pool
        self.workdir = workdir
        self.out_dir = workdir / "out"
        self.attempted = 0
        self.failures: list[str] = []
        self._expected = {}

    def run(self, i: int, before=None, after=None) -> "Sample":
        """Time command i of the pool, after a calibration; before/after run untimed."""
        cmd = self.pool[i]
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = cmd.argv(str(config_path(self.workdir, i)), str(self.out_dir))
        stdout = io.StringIO()
        gc.collect()
        if before:
            before()
        cal = calibrate()
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                status = self.cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # noqa: BLE001 - a command that raises is a failed command
            status = f"raised {type(exc).__name__}: {exc}"
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        if after:
            after()
        if cmd.physics is not None and i not in self._expected:
            self._expected[i] = reference.expected(cmd.physics)
        outcome = reference.check_outputs(cmd, status, stdout.getvalue(), self.out_dir, self._expected.get(i))
        self.attempted += 1
        if outcome.errors:
            self.failures.append(f"command {i} ({' '.join(argv)}): {'; '.join(outcome.errors[:3])}")
        return Sample(cpu, wall, CAL_NOMINAL_S / cal, outcome)


@dataclass
class Sample:
    """One timed command. `scale` converts its CPU seconds to calibrated seconds."""

    cpu: float
    wall: float
    scale: float
    outcome: reference.Outcome

    @property
    def seconds(self) -> float:
        return self.cpu * self.scale


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, capped at p90 and
    never below the median: (value, percentile)."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(math.ceil((n + 1) / 2), min(math.ceil(0.9 * n), n - 10))
    return xs[rank - 1], round(100 * rank / n)


# ----------------------------------------------------------------------------- per-layer metrics

# metric -> (span name, "total" | "self"): median over traced commands of the per-command time
LAYER_TIMES = {
    "states.realize_s": ("states.realize", "total"),
    "models.build_s": ("models.build", "total"),
    "models.average_s": ("models.average", "total"),
    "hilbert.density_s": ("hilbert.density", "total"),
    "hilbert.propagator_s": ("hilbert.propagator", "total"),
    "hilbert.partial_trace_s": ("hilbert.partial_trace", "total"),
    "engine.step_exact_s": ("engine.step_exact", "total"),
    "engine.exact_self_s": ("engine.exact", "self"),
    "engine.superoperator_self_s": ("engine.superoperator", "self"),
    "engine.effective_self_s": ("engine.effective", "self"),
    "analysis.purity_s": ("analysis.purity", "total"),
    "analysis.trace_distance_s": ("analysis.trace_distance", "total"),
    "analysis.fit_s": ("analysis.fit", "total"),
    "analysis.entropy_s": ("analysis.entropy", "total"),
    "checks.self_s": ("checks.run", "self"),
    "cli.parse_s": ("cli.parse", "total"),
    "cli.write_s": ("cli.write", "self"),
}
# metric -> span name: calls per command over one traced pass of the pool
LAYER_CALLS = {
    "states.realize_calls": "states.realize",
    "models.build_calls": "models.build",
    "hilbert.density_calls": "hilbert.density",
    "hilbert.propagator_calls": "hilbert.propagator",
    "engine.step_exact_calls": "engine.step_exact",
    "analysis.purity_calls": "analysis.purity",
}
# counter -> spans whose wrappers feed it: count per command over one traced pass of the pool
LAYER_COUNTS = {
    "hilbert.density_bytes": ("hilbert.density",),
    "engine.steps": ("engine.exact", "engine.superoperator", "engine.effective"),
    "checks.count": ("checks.run",),
    "checks.failed": ("checks.run",),
}
ROUTES = ("exact", "superoperator", "effective")
UNITS = {
    "hilbert.density_bytes": "B",
    "cli.bytes_written": "B",
    "models.distinct_build_ratio": "1",
    "trace.overhead_ratio": "1",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "us" if "_us_per_" in name else "count"


def command_layers(totals: dict, counts, rows: int, scale: float) -> dict[str, float]:
    """Per-layer calibrated times of one traced command, from its span totals."""
    out = {m: totals.get(span, {}).get(kind, 0.0) * scale for m, (span, kind) in LAYER_TIMES.items()}
    for route in ROUTES:
        steps = counts[f"engine.{route}_steps"]
        if steps:
            out[f"engine.{route}_us_per_step"] = totals[f"engine.{route}"]["total"] * scale / steps * 1e6
    if rows:
        out["cli.write_us_per_row"] = out["cli.write_s"] / rows * 1e6
    return out


def layer_metrics(present: set, per_command: list[dict], pass_calls, pass_counts, distinct, rows, nbytes, commands,
                  overhead) -> dict[str, float]:
    """Fold the traced commands into the per-layer metrics; metrics of absent layers are left out."""
    out = {}
    for m, (span, _kind) in LAYER_TIMES.items():
        if span in present:
            out[m] = statistics.median(c[m] for c in per_command)
    for m, span in LAYER_CALLS.items():
        if span in present:
            out[m] = pass_calls[span] / commands
    for m, feeders in LAYER_COUNTS.items():
        if present.intersection(feeders):
            out[m] = pass_counts[m] / commands
    for route in ROUTES:
        if f"engine.{route}" in present:
            values = [c[f"engine.{route}_us_per_step"] for c in per_command if f"engine.{route}_us_per_step" in c]
            out[f"engine.{route}_us_per_step"] = statistics.median(values) if values else 0.0
    if "hilbert.density" in present and "engine.steps" in out:
        steps = pass_counts["engine.steps"]
        out["hilbert.density_per_step"] = pass_calls["hilbert.density"] / steps if steps else 0.0
    if "models.build" in present:
        calls = pass_calls["models.build"]
        out["models.distinct_build_ratio"] = distinct / calls if calls else 0.0
    out["cli.rows_written"] = rows / commands
    out["cli.bytes_written"] = nbytes / commands
    if "cli.write" in present:
        values = [c["cli.write_us_per_row"] for c in per_command if "cli.write_us_per_row" in c]
        out["cli.write_us_per_row"] = statistics.median(values) if values else 0.0
    out["trace.overhead_ratio"] = overhead
    return out


# ----------------------------------------------------------------------------- the two modes


def measure_end_to_end(runner: Runner, seconds: float):
    """Timed loop with tracing off, plus cold set-up and peak RSS from fresh interpreters."""
    setups = []
    for _ in range(SETUP_RUNS):
        scale = CAL_NOMINAL_S / calibrate()
        cpu, status, _rss = spawn("setup", runner.workdir)
        runner.attempted += 1
        if status != 0:
            runner.failures.append(f"cold set-up exited with {status}")
        setups.append(cpu * scale)
    _cpu, status, rss = spawn("pass", runner.workdir)
    runner.attempted += 1
    if status != 0:
        runner.failures.append(f"one-pass subprocess exited with {status}")

    samples = []
    deadline = time.perf_counter() + 3 * seconds
    while sum(s.wall for s in samples) < seconds and time.perf_counter() < deadline:
        samples.append(runner.run(len(samples) % len(runner.pool)))
    times = [s.seconds for s in samples]
    p_tail, level = tail(times)
    n = len(times)
    raw = f"raw CPU median {statistics.median(s.cpu for s in samples):.4g} s, wall {statistics.median(s.wall for s in samples):.4g} s"
    return {
        "cmd_p50_s": (statistics.median(times), "s", f"n={n}; {raw}"),
        "cmd_p90_s": (p_tail, "s", f"p{level} of n={n}"),
        "setup_s": (statistics.median(setups), "s", f"median of n={len(setups)}"),
        "peak_rss_mb": (rss, "MB", "n=1"),
    }


def measure_layers(runner: Runner, seconds: float):
    """Alternate traced and untraced commands; per-layer metrics come from the traced ones.

    The first len(pool) traced commands are one pass over the pool; the
    counts come from them, so they repeat exactly for a given seed.
    """
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    pool = len(runner.pool)
    traced, untraced, per_command = [], [], []
    pass_calls, pass_counts = {name: 0 for name in spans.LAYERS}, Counter()
    distinct = rows = nbytes = 0
    wall_total = 0.0
    deadline = time.perf_counter() + 3 * seconds
    pair = 0
    while pair < pool or (wall_total < seconds and time.perf_counter() < deadline):
        i = pair % pool
        for is_traced in ((True, False) if pair % 2 == 0 else (False, True)):
            if not is_traced:
                sample = runner.run(i)
                untraced.append(sample.seconds)
                wall_total += sample.wall
                continue
            recorder.command = pair
            sample = runner.run(i, before=tracer.install, after=tracer.remove)
            traced.append(sample.seconds)
            wall_total += sample.wall
            spans_list, counts, keys = recorder.take()
            totals = spans.layer_totals(spans_list)
            per_command.append(command_layers(totals, counts, sample.outcome.rows, sample.scale))
            if pair < pool:
                for name, t in totals.items():
                    pass_calls[name] += t["calls"]
                pass_counts += counts
                distinct += len(keys)
                rows += sample.outcome.rows
                nbytes += sample.outcome.bytes
        pair += 1
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics = layer_metrics(tracer.present, per_command, pass_calls, pass_counts, distinct, rows, nbytes, pool,
                            overhead)
    timed = set(LAYER_TIMES) | {f"engine.{r}_us_per_step" for r in ROUTES} | {"cli.write_us_per_row"}
    return {m: (v, _unit(m), f"median of n={len(per_command)}" if m in timed else f"per command, pass of {pool}")
            for m, v in metrics.items()}


def config_path(workdir: Path, i: int) -> Path:
    return workdir / f"cfg_{i:02d}.txt"


def prepare(workdir: Path, pool: list):
    """Write the pool's config files and the command list child.py runs."""
    for i, cmd in enumerate(pool):
        if cmd.config:
            config_path(workdir, i).write_text(cmd.config, encoding="utf-8")
    commands = [cmd.argv(str(config_path(workdir, i)), str(workdir / "out-child")) for i, cmd in enumerate(pool)]
    (workdir / "commands.json").write_text(json.dumps(commands), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="zenojc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=_int_at_least(0))
    parser.add_argument("--seconds", required=True, type=_int_at_least(1))
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    # one CPU for the whole run, children included, so each calibration
    # sees the same core as the interval it is paired with
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    pool = workloads.generate(args.workload, args.seed)
    inputs = workloads.digest(pool)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        # the program's own temporary files (zeno check writes some) stay in the checkout
        (workdir / "tmp").mkdir(parents=True)
        os.environ["TMPDIR"] = str(workdir / "tmp")
        tempfile.tempdir = None
        prepare(workdir, pool)

        sys.path.insert(0, str(ROOT / "src"))
        import zenojc.cli

        runner = Runner(zenojc.cli, pool, workdir)
        for i in range(WARMUP_COMMANDS):
            runner.run(i % len(pool))
        if args.trace:
            metrics = measure_layers(runner, args.seconds)
        else:
            metrics = measure_end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = len(runner.failures)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} inputs={inputs}")
    for line in runner.failures[:10]:
        print(f"  FAIL {line}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<30} {value:<22.6g} {unit:<6} ({samples})")
    print(f"  {'fail_ratio':<30} {failed / runner.attempted:<22.6g} {'1':<6} ({failed} of {runner.attempted})")
    print("record: " + json.dumps({"inputs_sha256": inputs, "environment": environment()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0

