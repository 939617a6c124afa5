"""The dualnorm benchmark: one command per workload run.

    python3 benchmarks/run.py --workload small_blocks_all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
with the machine and environment, go to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from worker import REFERENCE_NOMINAL_S  # noqa: E402

SETUP_PROBES = 9
READY_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 150.0
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in the order they are printed."""
    import tracing

    units = {}
    for layer in tracing.LAYERS:
        units.update({
            f"{layer}.calls": "count",
            f"{layer}.self_s": "s",
            f"{layer}.share": "ratio",
            f"{layer}.errors": "count",
        })
    units.update({
        "dualmodel.random_field.calls": "count",
        "dualmodel.random_field.self_s": "s",
        "dualmodel.mix_seed.calls": "count",
        "dualmodel.Field.calls": "count",
        "dualmodel.Field.self_s": "s",
        "dualmodel.encode_field.calls": "count",
        "dualmodel.encode_field.self_s": "s",
        "matcore.cmatrix.calls": "count",
        "matcore.svd.calls": "count",
        "matcore.schatten_norm.calls": "count",
        "matcore.flop_n3": "count",
        "matcore.bytes_in": "bytes",
        "norms.field_norm.calls": "count",
        "interpolation.witness.calls": "count",
        "duality.pairing.calls": "count",
        "inequalities.moduli.draws_per_pair": "ratio",
        "inequalities.moduli.binned_ratio": "ratio",
        "inequalities.rademacher.patterns": "count",
        "report.digest_inputs.calls": "count",
        "report.digest.bytes": "bytes",
        "report.serialize.self_s": "s",
        "cli.emit.bytes": "bytes",
        "trace_overhead": "ratio",
    })
    return units


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 90, with at least ten of ``n`` samples ranked beyond it.

    The percentile q sits at rank (n + 1) q / 100; 100 means the maximum,
    for ten samples or fewer.
    """
    return min(90, (100 * (n - 10)) // (n + 1)) if n > 10 else 100


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A weighted mean of all order statistics, the i-th weighted by the
    Beta(q (n + 1), (1 - q) (n + 1)) mass of [(i - 1)/n, i/n].  Job times
    come in clusters, one per job kind; a single order statistic at a
    cluster edge moves with that cluster's extremes, this weighted mean
    much less.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    steps = 16  # Simpson subintervals per order statistic
    t = np.linspace(0.0, 1.0, n * steps + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    pairs = pdf[:-2:2] + 4.0 * pdf[1:-1:2] + pdf[2::2]
    mass = pairs.reshape(n, steps // 2).sum(axis=1)
    return float(mass @ x / mass.sum())


def job_percentile(values, q: int) -> float:
    return max(values) if q == 100 else harrell_davis(values, q / 100.0)


def src_digest(root: str) -> str:
    """sha256 over the package sources, standing in for a commit hash."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "dualnorm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\x00")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit_hash(root: str) -> str | None:
    """HEAD of the git repository rooted at ``root``; None when ``root`` is not one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def start_worker(cfg: dict) -> tuple[subprocess.Popen, float, float]:
    """Launch a workload process.

    Returns the process, its set-up time in seconds without the reference
    run it makes at the end of set-up, and that run's time.
    """
    cap = str(os.cpu_count() or 1)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap, MKL_NUM_THREADS=cap,
               PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
    )
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline().split() if sel.select(READY_TIMEOUT_S) else []
    setup = perf_counter() - t0
    if len(line) != 2 or line[0] != "READY":
        stop(proc)
        raise BenchError(f"workload process did not become ready (exit status {proc.returncode})")
    ref = float(line[1])
    return proc, setup - ref, ref


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def run_worker(cfg: dict, probes: int) -> tuple[dict, list[tuple[float, float]]]:
    """Start ``probes`` workload processes; all but the last only measure set-up.

    Returns the last process's result and, per probe, its set-up time and
    the reference time the process measured at the end of set-up.
    """
    setups = []
    for i in range(probes):
        proc, setup, ref = start_worker(cfg)
        setups.append((setup, ref))
        last = i == probes - 1
        try:
            out, _ = proc.communicate("RUN\n" if last else "QUIT\n", timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop(proc)
            raise BenchError("workload process timed out")
        if proc.returncode != 0:
            raise BenchError(f"workload process exited with status {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1]), setups
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"workload process printed no result: {exc}")


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics from scaled times, and the unscaled ones as notes."""
    passes = result["passes"]
    items = sum(p["items"] for p in passes)

    def timing(key):
        lat = [t for p in passes for t in p[key] if t is not None]
        return lat, {
            "items_per_s": items / sum(lat),
            "job_p50_ms": 1000.0 * job_percentile(lat, 50),
            "job_p90_ms": 1000.0 * job_percentile(lat, tail_percentile(len(lat))),
        }

    lat, metrics = timing("scaled_s")
    metrics["setup_s"] = statistics.median(t * REFERENCE_NOMINAL_S / ref for t, ref in setups)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    unscaled = timing("wall_s")[1]
    unscaled["setup_s"] = statistics.median(t for t, _ in setups)
    notes = {
        "passes": len(passes),
        "jobs": len(lat),
        "job_p90_percentile": tail_percentile(len(lat)),
        "setup_samples": len(setups),
        "reference_median_s": statistics.median(r for p in passes for r in p["reference_s"]),
        "unscaled": unscaled,
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dualnorm", "__init__.py")):
        print("error: run from a checkout root that has src/dualnorm", file=sys.stderr)
        return 2
    cfg = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "root": root,
        "out_dir": os.path.join(root, OUT_DIR),
    }
    try:
        result, setups = run_worker(cfg, 1 if args.trace else SETUP_PROBES)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        units = per_layer_units()
        metrics = {k: result["layers"][k] for k in units}
        notes = {"traced_passes": result["traced_passes"], "spans": result["spans"]}
    else:
        units = END_TO_END_UNITS
        metrics, notes = end_to_end(result, setups)
    fail_frac = result["failed"] / result["attempted"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_hash(root),
        "src_sha256": src_digest(root),
        "env": result["env"],
        "report_sha256": result["report_sha256"],
        "jobs_per_pass": result["jobs_per_pass"],
        **notes,
        "fail_frac": fail_frac,
        "failures": result["failures"],
        "passes_detail": result.get("passes"),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key in ("commit", "src_sha256", "env", "report_sha256", "jobs_per_pass", *notes):
        print(f"# {key}: {json.dumps(record[key])}")
    for failure in result["failures"]:
        print(f"# FAIL {failure}")
    print(f"{'fail_frac':40s} {fail_frac:.6g} ratio  ({result['failed']}/{result['attempted']} checks)")
    for key, value in metrics.items():
        print(f"{key:40s} {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
