"""locc-lab benchmark: closed-loop, single-client runs of seeded workloads.

    python3 perfbench/run.py --workload manycopy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One query starts only after the previous one returned, in this process (no
threads, no worker pool).  A run measures whole passes of fresh seeded
queries until ``--seconds`` of timed wall time have passed, checks every
answer outside the timed region, and prints the metrics, each with its
unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every timing is reported at a reference host speed.  On a shared 2-vCPU
VM the wall time of identical pure-Python work drifted by up to 50% within
minutes, far beyond any usable regression bound.  So a fixed calibration
loop that does not touch ``locc_lab`` is timed right before and right
after each pass (and after each set-up), and the pass's durations are
multiplied by ``CALIBRATION_REFERENCE_S`` over the loop's measured time.
The raw wall-clock values are printed next to the reported ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
the first pass untraced and then traced, repeatedly, and reports the
per-layer metrics of ``tracing.py``; the spans are written to
``.perfbench_out/`` when the run ends.  ``--workload all`` runs every
workload in a fresh interpreter, one after the other.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy, and ``LOCC_LAB_MEM_CAP`` is dropped so that
an inherited cap cannot change the answers.
"""

import time

START = time.perf_counter()  # set-up time is counted from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")
MEM_CAP_ENV_VAR = "LOCC_LAB_MEM_CAP"
SETUP_PROBES = 6  # extra fresh-interpreter set-ups per run; setup_s is their median
WALL_LIMIT_S = 150  # stop starting passes after this, whatever --seconds says
CALIBRATION_REFERENCE_S = 0.002  # calibration loop time at the reference speed

END_TO_END = {
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """``locc_lab`` from this checkout's ``src/``; exits non-zero when missing."""
    os.environ.pop(MEM_CAP_ENV_VAR, None)
    init = os.path.join(SRC, "locc_lab", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import locc_lab

    if os.path.realpath(locc_lab.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported {locc_lab.__file__}, expected {init}")
    return locc_lab


def provenance(args) -> dict:
    src_hash = hashlib.sha256()
    package = os.path.join(SRC, "locc_lab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                src_hash.update(name.encode() + b"\0" + handle.read())
    commit = None  # a checkout without .git has only the source hash
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "commit": commit, "src_sha256": src_hash.hexdigest(),
    }


def calibration_loop() -> float:
    """Seconds taken by fixed exact-arithmetic work that never calls locc_lab."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return time.perf_counter() - start


def speed_factor(repeats: int = 3) -> float:
    """Multiply a duration measured now by this to get it at reference speed."""
    return CALIBRATION_REFERENCE_S / statistics.median(calibration_loop() for _ in range(repeats))


class Raised:
    """Stands in for the answer of a query that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"raised {self.text}"


def run_pass(workload, pool, tracer=None):
    """Run each query once, in order, between two speed calibrations.

    Returns the answers, the raw latencies, the raw wall time and the
    pass's speed factor.
    """
    before = speed_factor()
    answers, latencies = [], []
    start = time.perf_counter()
    for index, query in enumerate(pool):
        t = time.perf_counter()
        try:
            if tracer is None:
                answer = workload.run(query)
            else:
                with tracer.span("query", index):
                    answer = workload.run(query)
        except Exception as exc:  # a raising query is a failed query
            answer = Raised(exc)
        latencies.append(time.perf_counter() - t)
        answers.append(answer)
    wall = time.perf_counter() - start
    return answers, latencies, wall, (before + speed_factor()) / 2


def check_pass(workload, pool, answers) -> list[str]:
    """Failure messages, one per query that raised or failed its check."""
    failures = []
    for index, (query, answer) in enumerate(zip(pool, answers)):
        try:
            if isinstance(answer, Raised):
                raise RuntimeError(answer.text)
            workload.check(query, answer)
        except Exception as exc:  # any checker error fails the query too
            failures.append(f"{query.kind} #{index} {query.args!r:.120}: {exc}")
    return failures


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload, pool0, seconds, deadline):
    """Whole passes of fresh queries until `seconds` of timed wall time.

    Returns the timed seconds and the query latencies, both at reference
    speed and raw, and the failures.
    """
    failures, index = [], 0
    scaled = {"seconds": 0.0, "latencies": []}
    raw = {"seconds": 0.0, "latencies": []}
    pool = pool0
    while True:
        answers, lats, wall, factor = run_pass(workload, pool)
        scaled["seconds"] += wall * factor
        scaled["latencies"] += [lat * factor for lat in lats]
        raw["seconds"] += wall
        raw["latencies"] += lats
        failures += check_pass(workload, pool, answers)
        index += 1
        if raw["seconds"] >= seconds or time.perf_counter() > deadline:
            break
        pool = workload.pool(index)
    scaled["passes"] = index
    return scaled, raw, failures


def end_to_end(measured, setups) -> dict:
    latencies = measured["latencies"]
    return {
        "queries_per_s": len(latencies) / measured["seconds"],
        "query_p50_ms": 1e3 * statistics.median(latencies),
        "query_p90_ms": 1e3 * quantile(latencies, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_traced(lab, workload, pool, seconds, deadline):
    """Pass 0 untraced, then traced, repeated until `seconds` have passed."""
    from tracing import Tracer, per_layer
    from workloads import digest

    untraced_s, traced_s, self_runs, failures = [], [], [], []
    first = None
    while True:
        answers_u, _, wall_u, factor_u = run_pass(workload, pool)
        tracer = Tracer(lab)
        with tracer.installed():
            answers_t, _, wall_t, factor_t = run_pass(workload, pool, tracer)
        untraced_s.append(wall_u * factor_u)
        traced_s.append(wall_t * factor_t)
        self_runs.append({n: t * factor_t for n, t in tracer.self_s.items()})
        if first is None:
            first = tracer
            failures += check_pass(workload, pool, answers_u)
            answer_digest = digest(answers_u)
        if digest(answers_t) != answer_digest or digest(answers_u) != answer_digest:
            failures.append("traced and untraced answers differ")
        if (tracer.calls, tracer.counts) != (first.calls, first.counts):
            failures.append("traced counts differ between repetitions")
        if sum(untraced_s) + sum(traced_s) >= seconds or time.perf_counter() > deadline:
            break
    names = set().union(*self_runs)
    self_s = {n: statistics.median(run.get(n, 0.0) for run in self_runs) for n in names}
    overhead = 1 - sum(untraced_s) / sum(traced_s)
    values = per_layer(first.calls, first.counts, self_s, overhead)
    attempted = 2 * len(pool) * len(untraced_s)
    return values, failures, attempted, first, answer_digest


def setup_probe_times(args) -> list[list[float]]:
    """[reference-speed, raw] set-up times of SETUP_PROBES fresh interpreters,
    run one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times


def run_one(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    lab = import_package()
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](lab, args.seed, workdir)
        for query in workload.warmup():
            workload.run(query)
        # Drawing the seeded queries is the benchmark's own work (rejection
        # sampling against the dense reference), so it stays out of set-up.
        setup_raw = time.perf_counter() - START
        setup = [setup_raw * speed_factor(5), setup_raw]
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        pool0 = workload.pool(0)
        deadline = START + WALL_LIMIT_S
        print("provenance " + json.dumps(provenance(args), sort_keys=True))
        print("workload " + json.dumps(workload.record(pool0), sort_keys=True))
        if args.trace:
            values, failures, attempted, tracer, answer_digest = measure_traced(
                lab, workload, pool0, args.seconds, deadline)
            from tracing import metric_specs

            specs = metric_specs()
            metrics = {n: {"value": values[n], "unit": specs[n][0]} for n in specs}
            write_trace(args, tracer, metrics, answer_digest)
        else:
            scaled, raw, failures = measure(workload, pool0, args.seconds, deadline)
            setups = [setup] + setup_probe_times(args)
            values = end_to_end(scaled, [s for s, _ in setups])
            raw_values = end_to_end(raw, [r for _, r in setups])
            attempted = len(scaled["latencies"])
            p90 = values["query_p90_ms"] / 1e3
            print(f"samples {attempted} queries in {scaled['passes']} passes, "
                  f"{sum(lat > p90 for lat in scaled['latencies'])} beyond p90; "
                  f"{len(setups)} set-ups")
            for name in ("queries_per_s", "query_p50_ms", "query_p90_ms", "setup_s"):
                print(f"{args.workload} raw_{name} {raw_values[name]:.6g} {END_TO_END[name]}")
            print(f"{args.workload} failed_share {len(failures) / attempted:.6g} ratio")
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        for failure in failures[:20]:
            print("FAILED " + failure, file=sys.stderr)
        for name, m in metrics.items():
            print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": len(failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def write_trace(args, tracer, metrics, answer_digest):
    """Spans of the first traced pass plus the per-layer metrics, as JSON."""
    os.makedirs(OUT_DIR, exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "provenance": provenance(args),
            "answer_digest": answer_digest,
            "per_layer": metrics,
            "span_fields": ["name", "start_s", "end_s", "parent", "query"],
            "spans": [[n, s - origin, e - origin, p, q] for n, s, e, p, q in tracer.spans],
        }, handle)
    print(f"trace written to {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")


def run_all(args) -> int:
    """Every workload in a fresh interpreter, one at a time."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
