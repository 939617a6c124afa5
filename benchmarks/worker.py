"""One workload process.

Started by ``run.py`` as ``python3 benchmarks/worker.py '<json config>'``.
It imports ``dualnorm`` from the checkout's ``src/``, builds its jobs,
warms up, prints ``READY`` with a reference time and waits for one line
on stdin: ``QUIT`` ends it (a set-up probe), ``RUN`` runs the planned
number of whole passes over the jobs, then prints one JSON result and exits.

With ``trace`` set, untraced and traced passes alternate; the traced ones
give the per-layer metrics and the difference gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import workloads as wl

# Typical time of ``time_reference`` on the 2-core machine of the first
# baseline.  End-to-end times are scaled by this over the reference time
# measured next to them (see README.md, "Machine-speed scaling").
REFERENCE_NOMINAL_S = 0.0075
# A run stops adding passes after TIME_CAP x --seconds of wall time, so a
# machine at half speed still ends its run in time.
TIME_CAP = 1.6


def _import_dualnorm(root: str) -> None:
    """Import the package from the checkout's ``src/``, never an installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dualnorm

    if not os.path.abspath(dualnorm.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"dualnorm imported from {dualnorm.__file__}, not from {src}")


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})

    def lib(kind):
        info = deps.get(kind, {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "blas_threads_cap": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


_REF_MATRIX = np.linspace(-1.0, 1.0, 16).reshape(4, 4) * (1 + 0.5j) + np.eye(4)
_REF_ROW = [[0.125, -0.5], [1.5, 2.25]] * 4


def time_reference() -> float:
    """Seconds taken by a fixed piece of work that does not use ``dualnorm``.

    It mixes operations the workloads spend their time in (interpreted
    loops, 4x4 SVDs, generator construction, JSON encoding, hashing), so
    its time tracks the speed the machine gives this process at the moment.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(10000):
        acc += i * i
    for k in range(150):
        np.linalg.svd(_REF_MATRIX, compute_uv=False)
        np.random.default_rng(k).standard_normal((2, 2))
        hashlib.sha256(json.dumps(_REF_ROW).encode()).digest()
    return perf_counter() - t0


class ScaledClock:
    """Times calls, with the reference work run after each one.

    A call's scaled time is its wall time times the nominal reference time
    over the mean of the reference times just before and just after it.
    """

    def __init__(self):
        self.last_ref = time_reference()
        self.refs = [self.last_ref]

    def time(self, fn, *args, **kwargs):
        """Return ``fn(*args, **kwargs)``, its wall time and its scaled time."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs), *self._times(perf_counter() - t0)
        except Exception:
            self._times(perf_counter() - t0)
            raise

    def _times(self, wall: float) -> tuple[float, float]:
        before, self.last_ref = self.last_ref, time_reference()
        self.refs.append(self.last_ref)
        return wall, wall * REFERENCE_NOMINAL_S * 2 / (before + self.last_ref)


def _finished(walls) -> float:
    """Total wall time of the jobs that finished (a failed job times as None)."""
    return sum(t for t in walls if t is not None)


class Runner:
    """Runs the jobs of one workload and checks their outputs."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.workload = cfg["workload"]
        _import_dualnorm(cfg["root"])
        self.checks = wl.Checks()
        self.first_pass: list[bytes] | None = None
        self.report_sha256 = hashlib.sha256()
        out_dir = os.path.join(cfg["out_dir"], self.workload)
        os.makedirs(out_dir, exist_ok=True)
        if self.workload == "moduli_sampler":
            from dualnorm import dualmodel, inequalities

            self.ineq = inequalities
            self.model = dualmodel.preset_dual(wl.MODULI_DUAL)
            self.jobs = wl.moduli_jobs(cfg["seed"])
            inequalities.modulus_convexity_sample(self.model, 2.0, "sch", samples=2, seed=0)
            inequalities.modulus_smoothness_sample(self.model, 2.0, "sch", samples=2, seed=0)
        else:
            from dualnorm import cli

            self.cli = cli
            self.jobs = wl.cli_jobs(self.workload, cfg["seed"], out_dir)
            warm = ["verify", "all", "--dual", "s3", "--p", "2", "--trials", "1",
                    "--out", os.path.join(out_dir, "warmup.json")]
            if cli.main(warm) != 0:
                raise RuntimeError("warm-up run of `dualnorm verify all` failed")

    # -- one job ------------------------------------------------------------
    #
    # Each returns (wall seconds, scaled seconds, items completed, output bytes).

    def _run_cli(self, job, clock: ScaledClock):
        if os.path.exists(job["out"]):
            os.remove(job["out"])
        try:
            rc, wall, scaled = clock.time(self.cli.main, job["argv"])
        except Exception:
            traceback.print_exc()
            rc = wall = scaled = None
        self.checks.check(rc == 0, f"{job['name']}: exit status {rc}")
        if rc not in (0, 1):  # 1 still writes the report: a check inside it failed
            return wall, scaled, 0, b""
        with open(job["out"], "rb") as fh:
            data = fh.read()
        return wall, scaled, wl.check_cli_report(self.checks, job, data.decode("utf-8")), data

    def _run_moduli(self, job, clock: ScaledClock):
        # One timed call per sampler and family, with the reference between
        # them: the job is long enough for the machine's speed to change.
        ineq = self.ineq
        wall = scaled = 0.0
        outputs = []
        for family, seed in job["seeds"].items():
            name = f"{job['name']}.{family}"
            common = (self.model, job["p"], family)
            try:
                conv, wall1, scaled1 = clock.time(
                    ineq.modulus_convexity_sample, *common, samples=job["samples"], seed=seed
                )
                smooth, wall2, scaled2 = clock.time(
                    ineq.modulus_smoothness_sample, *common, t_grid=wl.MODULI_T_GRID,
                    samples=job["samples"], seed=seed,
                )
            except Exception:
                traceback.print_exc()
                conv = None
            if not self.checks.check(conv is not None, f"{name}: raised"):
                return None, None, 0, b""
            wl.check_moduli(self.checks, name, job["p"], conv, smooth)
            wall += wall1 + wall2
            scaled += scaled1 + scaled2
            outputs.append(wl.moduli_bytes(conv, smooth))
        return wall, scaled, job["samples"] * len(outputs), b"".join(outputs)

    # -- one pass -----------------------------------------------------------

    def run_pass(self, label: str, on_job=None) -> dict:
        """Run every job once and check the outputs against the first pass.

        Returns per-job wall and scaled seconds (None for a job that did not
        finish), the reference times and the items completed.
        """
        run_one = self._run_moduli if self.workload == "moduli_sampler" else self._run_cli
        clock = ScaledClock()
        walls, scaled, items, outputs = [], [], 0, []
        for i, job in enumerate(self.jobs):
            if on_job is not None:
                on_job(i)
            wall, job_scaled, n, data = run_one(job, clock)
            walls.append(wall)
            scaled.append(job_scaled)
            items += n
            outputs.append(data)
        if self.first_pass is None:
            self.first_pass = outputs
            for data in outputs:
                self.report_sha256.update(data)
        else:
            for job, data, first in zip(self.jobs, outputs, self.first_pass):
                self.checks.check(data == first, f"{job['name']}: {label} output bytes differ from pass 1")
        return {"wall_s": walls, "scaled_s": scaled, "reference_s": clock.refs, "items": items}

    # -- whole runs -----------------------------------------------------------

    def _more(self, done: int, planned: int, t0: float) -> bool:
        """Another pass, unless the plan is met or the time cap has passed."""
        capped = done >= 2 and perf_counter() - t0 > TIME_CAP * self.cfg["seconds"]
        return done < planned and not capped

    def run(self) -> dict:
        planned = wl.planned_passes(self.workload, self.cfg["seconds"])
        t0 = perf_counter()
        passes = []
        while self._more(len(passes), planned, t0):
            passes.append(self.run_pass("untraced"))
        return {"passes": passes}

    def run_traced(self) -> dict:
        import tracing

        # an untraced and a traced pass take about twice a plain pass
        planned = max(2, wl.planned_passes(self.workload, self.cfg["seconds"]) // 2)
        tracer = tracing.Tracer()
        untraced, traced, per_pass = [], [], []
        t0 = perf_counter()
        while self._more(len(traced), planned, t0):
            untraced.append(_finished(self.run_pass("untraced")["wall_s"]))
            tracer.install()
            tracer.counters = {}
            first = len(tracer)
            base = len(traced) * len(self.jobs)

            def on_job(i):
                tracer.current_job = base + i

            wall = _finished(self.run_pass("traced", on_job)["wall_s"])
            tracer.uninstall()
            leftover = tracing.leftover_wrappers()
            self.checks.check(not leftover, f"wrappers left after the traced pass: {leftover[:5]}")
            traced.append(wall)
            per_pass.append(tracing.span_metrics(tracer, first, len(tracer), wall, dict(tracer.counters)))
        counts = [{k: v for k, v in m.items() if not k.endswith((".self_s", ".share"))} for m in per_pass]
        for i, c in enumerate(counts[1:], start=2):
            diff = sorted(k for k in c if c[k] != counts[0][k])
            self.checks.check(not diff, f"traced pass {i} counts differ from traced pass 1: {diff[:5]}")
        tracer.write(os.path.join(self.cfg["out_dir"], f"spans-{self.workload}.npz"))
        layers = {
            k: counts[0][k] if k in counts[0] else statistics.median(m[k] for m in per_pass)
            for k in per_pass[0]
        }
        layers["trace_overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        return {"layers": layers, "traced_passes": len(traced), "spans": len(tracer)}


def serve(cfg: dict, proto) -> None:
    """Set up, report ``READY`` on ``proto``, then run if told to.

    The reference work runs once at the end of set-up, when the process is
    warm; its time follows ``READY`` so that ``run.py`` can scale set-up.
    """
    runner = Runner(cfg)
    proto.write(f"READY {time_reference()!r}\n")
    proto.flush()
    if sys.stdin.readline().strip() != "RUN":
        return
    result = runner.run_traced() if cfg["trace"] else runner.run()
    result.update(
        jobs_per_pass=len(runner.jobs),
        attempted=runner.checks.attempted,
        failed=runner.checks.failed,
        failures=runner.checks.failures,
        report_sha256=runner.report_sha256.hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    proto.write(json.dumps(result) + "\n")
    proto.flush()


def main() -> int:
    proto = sys.stdout
    with open(os.devnull, "w") as devnull:
        sys.stdout = devnull  # `dualnorm verify` prints a summary per job
        try:
            serve(json.loads(sys.argv[1]), proto)
        finally:
            sys.stdout = proto
    return 0


if __name__ == "__main__":
    sys.exit(main())
