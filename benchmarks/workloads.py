"""The benchmark's workloads: their jobs, and the checks on each job's output.

A *job* is one timed unit and an *item* is one unit of completed work.

* ``small_blocks_all``: ``dualnorm verify <suite>`` through ``cli.main`` for
  every suite and p in {1.5, 2, 3} on ``su2_trunc(4)``; an item is one
  report.  Blocks of at most 4x4 put the time into per-call overhead.
* ``large_blocks_all``: the same jobs on ``custom(16,32)``, where field
  encoding for digests and LAPACK SVDs take the time.
* ``moduli_sampler``: the convexity and smoothness samplers on ``s3`` for
  p in {1.5, 2, 3} and both families, the shape of the moduli acceptance
  check; a job covers one p, and an item is one sampled unit pair of one
  family.  No digest, no report.

Everything a job receives is derived from the workload seed here.
"""

from __future__ import annotations

import hashlib
import json
import math

SUITES = (
    "adjoint",
    "clarkson",
    "duality",
    "holder",
    "interpolation",
    "kadec_klee",
    "moduli",
    "norms",
    "two_point",
    "type_cotype",
)
P_VALUES = ("1.5", "2", "3")
FAMILIES = ("sch", "hs")

CLI_WORKLOADS = {
    "small_blocks_all": {"dual": "su2_trunc(4)", "trials": 10},
    "large_blocks_all": {"dual": "custom(16,32)", "trials": 2},
}
MODULI_DUAL = "s3"
# Pairs per (p, family) job.  Each of the 19 convexity bins catches about
# 3.5% of the pairs, so at 500 pairs a bin stays empty with probability
# about 2e-8 per job, and the p = 2 closed-form band holds.
MODULI_SAMPLES = 500
MODULI_T_GRID = (0.1, 0.5, 1.0)
WORKLOADS = (*CLI_WORKLOADS, "moduli_sampler")

# Scaled duration of one pass over a workload's jobs at the first baseline.
# A run makes a fixed number of passes, seconds / this, so that both sides
# of a comparison collect the same number of job latencies.
NOMINAL_PASS_S = {"small_blocks_all": 2.2, "large_blocks_all": 2.1, "moduli_sampler": 4.0}

# Convexity bins of the sampler (lower edges 0.1 .. 1.9).
N_CONVEXITY_BINS = 19


def planned_passes(workload: str, seconds: float) -> int:
    """Passes in a run of about ``seconds`` at the nominal machine speed (at least 2)."""
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def derived_seed(*parts) -> int:
    """A 32-bit seed for the program, derived from the workload seed and a job."""
    text = "\x00".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def cli_jobs(workload: str, seed: int, out_dir: str) -> list[dict]:
    """One ``verify`` job per (suite, p), each writing its report to a file."""
    spec = CLI_WORKLOADS[workload]
    jobs = []
    for suite in SUITES:
        for p in P_VALUES:
            out = f"{out_dir}/{suite}-p{p}.json"
            argv = [
                "verify", suite,
                "--dual", spec["dual"],
                "--p", p,
                "--family", "both",
                "--trials", str(spec["trials"]),
                "--seed", str(derived_seed(workload, seed, suite, p)),
                "--out", out,
            ]
            jobs.append(
                {"name": f"{suite}[p={p}]", "suite": suite, "p": float(p),
                 "trials": spec["trials"], "argv": argv, "out": out}
            )
    return jobs


def moduli_jobs(seed: int) -> list[dict]:
    """One job per p: both samplers on the same seeded pairs, for each family.

    Both families share a job because a Schatten-family sampler call takes
    about 1.25x a Hilbert-Schmidt one: with one job per (p, family) the
    median job latency falls in the gap between the two groups and moves
    by up to 13% between runs.
    """
    return [
        {"name": f"moduli[p={p}]", "p": float(p), "samples": MODULI_SAMPLES,
         "seeds": {family: derived_seed("moduli_sampler", seed, p, family) for family in FAMILIES}}
        for p in P_VALUES
    ]


# -- expected report counts ---------------------------------------------------


def _interior(p: float) -> bool:
    return 1.0 < p < math.inf


def expected_report_count(suite: str, p_list, families, trials: int, reports=()) -> int:
    """Number of reports ``run_suite`` must return for one suite.

    ``moduli`` reports one convexity record per occupied bin; the occupancy
    is read from the suite's own ``convexity_bins`` records in ``reports``.
    """
    F = len(families)
    total = 0
    for p in p_list:
        finite, interior = p < math.inf, _interior(p)
        if suite == "norms":
            total += trials * (1 + 2 * F)
        elif suite == "holder":
            total += trials * (2 + finite)
        elif suite == "adjoint":
            total += trials * F
        elif suite == "duality":
            total += trials * (3 + interior) if finite else 0
        elif suite == "interpolation":
            total += 3 * trials if interior else 0
        elif suite == "clarkson":
            total += trials * F if interior else 0
        elif suite == "two_point":
            total += F * (trials * (1 + (p == 2.0)) + 1) if interior else 0
        elif suite == "type_cotype":
            total += F * trials * (1 + (p == 2.0)) if interior else 0
        elif suite == "kadec_klee":
            total += trials + 1 if interior else 0
        elif suite == "moduli":
            # the occupancy record and the sampler's three default smoothness points
            total += F * (1 + 3) if interior else 0
        else:
            raise ValueError(f"unknown suite {suite!r}")
    if suite == "norms":
        total += trials  # p = 2 coincidence, once per run
    if suite == "moduli":
        total += int(sum(r["lhs"] for r in reports if r["case_id"].startswith("convexity_bins.")))
    return total


# -- checks -------------------------------------------------------------------


class Checks:
    """Tally of correctness checks; ``failures`` keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def check_cli_report(checks: Checks, job: dict, text: str) -> int:
    """Check one ``verify`` report file; return its report count."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        checks.check(False, f"{job['name']}: report is not JSON ({exc})")
        return 0
    expected = expected_report_count(job["suite"], [job["p"]], FAMILIES, job["trials"], rows)
    checks.check(len(rows) == expected, f"{job['name']}: {len(rows)} reports, expected {expected}")
    for row in rows:
        checks.check(row.get("passed") is True, f"{job['name']}: {row.get('case_id')} did not pass")
    return len(rows)


def check_moduli(checks: Checks, name: str, p: float, convexity, smoothness) -> None:
    """The moduli acceptance rules: no empty bin, both bounds, the p = 2 band.

    The p = 2 band is checked against the Hilbert-space closed forms,
    written out here rather than taken from the library under test.
    """
    checks.check(len(convexity) == N_CONVEXITY_BINS, f"{name}: {len(convexity)} convexity bins")
    for est in convexity:
        eps = est.epsilon_or_t
        if not checks.check(not est.skipped, f"{name}: empty bin eps={eps}"):
            continue
        checks.check(est.passed(), f"{name}: convexity bound fails at eps={eps}")
        if p == 2.0:
            closed = 1.0 - math.sqrt(max(0.0, 1.0 - eps * eps / 4.0))
            checks.check(
                closed - 1e-9 <= est.estimate <= closed + 0.05,
                f"{name}: convexity {est.estimate} outside the p=2 band at eps={eps}",
            )
    checks.check(len(smoothness) == len(MODULI_T_GRID), f"{name}: {len(smoothness)} smoothness points")
    for est in smoothness:
        t = est.epsilon_or_t
        checks.check(est.passed(), f"{name}: smoothness bound fails at t={t}")
        if p == 2.0:
            closed = math.sqrt(1.0 + t * t) - 1.0
            checks.check(
                closed - 0.05 <= est.estimate <= closed + 1e-9,
                f"{name}: smoothness {est.estimate} outside the p=2 band at t={t}",
            )


def moduli_bytes(convexity, smoothness) -> bytes:
    """Exact serialization of a moduli job's estimates, for byte comparisons."""
    rows = [
        (e.kind, e.epsilon_or_t.hex(), float(e.estimate).hex(), e.bound.hex(), e.samples)
        for e in (*convexity, *smoothness)
    ]
    return json.dumps(rows).encode("utf-8")
