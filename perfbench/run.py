"""ssa-lab benchmark: one workload per process, oracle-checked, closed loop.

    python3 perfbench/run.py --workload gap|corr|cli|all --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  One
client issues BATCHES_PER_30S[workload] * S / 30 batches, rounded and at
least MIN_BATCHES, back to back, so the batch count depends on S only, never
on how fast the host ran.  Every batch holds the workload's fixed mix of item kinds; batch b
draws its inputs from (seed, b).  Every item is graded against an independent
oracle.  The last stdout line is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The times listed in SPEED_SCALED are divided, item
by item, by the host slowdown that SpeedProbe (StartUpProbe for cli)
measures between items.  The line before it is the full record (seed,
environment, speed factor and raw times, percentile used for the tail, share
of wall time per item kind, failing items, err_max_bits and fail_frac).
`--workload all` runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools, and ssa_lab's own campaign pool, are pinned before
# numpy loads, here and in every subprocess, so timings do not depend on how
# many cores a pool grabs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SSA_LAB_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
WORKLOADS = ("gap", "corr", "cli")
MIN_BATCHES = 2
# Batches per 30 s of --seconds.  On the baseline host (2-vCPU VM, see
# README) that measures about 22 s of gap, 36 s of corr and 30 s of cli.
BATCHES_PER_30S = {"gap": 2, "corr": 4, "cli": 2}
SETUP_CHILDREN = 2
TAIL_BEYOND = 10
# Times scaled by the host speed probe, per workload.  The gap tail is left
# raw: it is set by the full-rank 4x4x4 states, whose cost is faulting in a
# 268 MB array, which the probe does not follow.
SPEED_SCALED = {
    "gap": ("wall_s", "item_ms_p50"),
    "corr": ("wall_s", "item_ms_p50", "item_ms_tail"),
    "cli": ("wall_s", "item_ms_p50", "item_ms_tail"),
}
# Seed kept out of development runs, for re-checking a claimed gain.
HELD_OUT_SEED = 424242


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(name: str, seed: int, count: int, workdir: Path):
    """Import the package, build the inputs of `count` batches from the seed,
    warm up each item kind."""
    t0 = time.perf_counter()
    import ssa_lab
    import workloads

    wls = [workloads.build(name, seed, b, str(workdir), child_env()) for b in range(count)]
    for item in wls[0].warmup:
        item.run()
    elapsed = time.perf_counter() - t0
    if not Path(ssa_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ssa_lab was imported from {ssa_lab.__file__}, not from {SRC}")
    return elapsed, wls


class SpeedProbe:
    """Host speed, from a fixed numpy kernel timed between items.

    On a shared host the same code runs 10-30% slower for seconds to minutes
    at a time.  The kernel (eigvalsh of one 8x8 matrix, the size of most
    ssa_lab spectra) slows with it, and being the benchmark's own code it
    does not change when ssa_lab does.  It runs before an item once GAP_S
    has passed since the last probe, and once after the last batch; its time
    is left out of the batches.
    """

    CALLS = 400
    GAP_S = 0.25
    # probe time on the baseline host, so that slowdown() is 1 there
    REF_S = 0.0060

    def __init__(self) -> None:
        import numpy as np

        m = np.random.default_rng(0).standard_normal((8, 8))
        self._m = m + m.T
        self._eigvalsh = np.linalg.eigvalsh
        self.samples: list[tuple[float, float]] = []  # (end time, probe seconds)

    def maybe(self, force: bool = False) -> float:
        """Probe if it is due; return the seconds spent probing."""
        t0 = time.perf_counter()
        if not force and self.samples and t0 - self.samples[-1][0] < self.GAP_S:
            return 0.0
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        return t1 - t0

    def slowdown(self, times: list[float]) -> list[float]:
        """How much slower than the baseline host the host ran at each of
        `times`: the probe time interpolated between the probes before and
        after it, relative to REF_S.  Each probe time is first replaced by
        the median of it and its two neighbours, so a single slow probe
        cannot stand for the items beside it."""
        import numpy as np

        vals = [v for _, v in self.samples]
        smooth = []
        for i in range(len(vals)):
            lo = min(max(i - 1, 0), max(len(vals) - 3, 0))
            smooth.append(statistics.median(vals[lo:lo + 3]))
        at = np.interp(times, [t for t, _ in self.samples], smooth)
        return [float(v) / self.REF_S for v in at]

    def _kernel(self) -> None:
        for _ in range(self.CALLS):
            self._eigvalsh(self._m)

    def close(self) -> None:
        pass


class StartUpProbe(SpeedProbe):
    """Host speed for the cli workload: a fresh interpreter that imports
    numpy and scipy.optimize, the start-up every CLI call pays before
    ssa_lab's own code runs.  The numpy kernel does not follow process
    start-up: in the cli parent it runs on caches a subprocess has just
    evicted.  The interpreters are started by a helper process, so their
    memory stays out of this process's RUSAGE_CHILDREN, which gives the cli
    workload's peak_rss_mb.  close() stops the helper.
    """

    GAP_S = 3.0
    REF_S = 0.83
    HELPER = (
        "import subprocess, sys\n"
        "for _ in sys.stdin:\n"
        "    subprocess.run([sys.executable, '-c', 'import numpy, scipy.optimize'], check=True, timeout=120)\n"
        "    print('ok', flush=True)\n"
    )

    def __init__(self) -> None:
        self.samples = []
        self._helper = subprocess.Popen(
            [sys.executable, "-c", self.HELPER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT),
        )

    def _kernel(self) -> None:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        if self._helper.stdout.readline().strip() != "ok":
            raise RuntimeError("start-up probe failed")

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


def run_batches(batch_items, rec=None, probe=None) -> list[tuple[float, list]]:
    """Run each batch once, in order; one (wall, results) entry per batch."""
    return [_batch(items, b, rec, probe) for b, items in enumerate(batch_items)]


def batch_count(name: str, seconds: float, minimum: int) -> int:
    return max(minimum, round(BATCHES_PER_30S[name] * seconds / 30))


def _batch(items, b: int, rec, probe) -> tuple[float, list]:
    results = []
    probing = 0.0
    t_batch = time.perf_counter()
    for i, item in enumerate(items):
        if probe is not None:
            probing += probe.maybe()
        if rec is not None:
            rec.begin_item(f"{b}:{i}", item.kind)
        t0 = time.perf_counter()
        try:
            checks, error = item.run(), None
        except Exception as exc:  # graded as a failed item, the run goes on
            checks, error = [], f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if rec is not None:
            rec.end_item()
        results.append({"kind": item.kind, "index": i, "t": t0, "s": dt, "checks": checks,
                        "error": error})
    return time.perf_counter() - t_batch - probing, results


def grade(batches) -> tuple[int, int, float, list[dict]]:
    """Count attempted and failed items.  err_max is the worst error of the
    checks measured in bits (|computed - oracle| or a margin violation); it
    is inf when any of them is NaN."""
    attempted = failed = 0
    err_max = 0.0
    failures = []
    for b, (_, results) in enumerate(batches):
        for r in results:
            attempted += 1
            bad = [c for c in r["checks"] if not c.error <= c.tol]  # a NaN error fails too
            for c in r["checks"]:
                if c.bits:
                    err_max = math.inf if math.isnan(c.error) else max(err_max, c.error)
            if r["error"] or bad:
                failed += 1
                if len(failures) < 20:
                    failures.append({"batch": b, "index": r["index"], "kind": r["kind"],
                                     "error": r["error"], "checks": bad})
    return attempted, failed, err_max, failures


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n_items: int) -> int:
    """Highest whole percentile with TAIL_BEYOND of the run's items beyond it.
    The batch count is fixed by --seconds, so for a given --seconds a
    workload always uses the same percentile."""
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / n_items))


def kind_shares(batches) -> dict[str, float]:
    total = sum(wall for wall, _ in batches)
    shares: dict[str, float] = {}
    for _, results in batches:
        for r in results:
            shares[r["kind"]] = shares.get(r["kind"], 0.0) + r["s"] / total
    return {k: round(v, 4) for k, v in shares.items()}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_in_children(name: str, seed: int, seconds: int) -> list[float]:
    out = []
    for _ in range(SETUP_CHILDREN):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed), "--seconds", str(seconds)],
            capture_output=True, text=True, env=dict(os.environ), cwd=str(ROOT), timeout=120,
        )
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.strip()[-500:]}")
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    setup_s, wls = setup(name, seed, batch_count(name, seconds, MIN_BATCHES), workdir)
    probe = StartUpProbe() if name == "cli" else SpeedProbe()
    try:
        batches = run_batches([wl.items for wl in wls], probe=probe)
        probe.maybe(force=True)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    finally:
        probe.close()
    # the cli workload's memory is that of its CLI subprocesses
    peak_kb = child_rss if name == "cli" else self_rss
    setups = [setup_s] + setup_in_children(name, seed, seconds)
    attempted, failed, err_max, failures = grade(batches)
    times_ms = [r["s"] * 1e3 for _, results in batches for r in results]
    p_tail = tail_percentile(len(times_ms))
    raw = {
        "wall_s": statistics.mean(w for w, _ in batches),
        "item_ms_p50": percentile(times_ms, 50),
        "item_ms_tail": percentile(times_ms, p_tail),
    }
    # Each item is divided by the host slowdown at its midpoint, and each
    # batch's wall time shrinks as the sum of its items does.
    slow = probe.slowdown([r["t"] + r["s"] / 2 for _, results in batches for r in results])
    scaled_ms = [ms / f for ms, f in zip(times_ms, slow)]
    walls, k = [], 0
    for wall, results in batches:
        n = len(results)
        walls.append(wall * sum(scaled_ms[k:k + n]) / sum(times_ms[k:k + n]))
        k += n
    rescaled = {
        "wall_s": statistics.mean(walls),
        "item_ms_p50": percentile(scaled_ms, 50),
        "item_ms_tail": percentile(scaled_ms, p_tail),
    }
    speed = sum(times_ms) / sum(scaled_ms)
    scaled = SPEED_SCALED.get(name, ())
    times = {key: rescaled[key] if key in scaled else value for key, value in raw.items()}
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(times["wall_s"], "s"),
        "item_ms_p50": metric(times["item_ms_p50"], "ms"),
        "item_ms_tail": metric(times["item_ms_tail"], "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    record = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "batches": len(batches),
        "items_per_batch": len(wls[0].items),
        "tail_percentile": p_tail,
        "speed_factor": speed,
        "probe_s": {"n": len(probe.samples),
                    "median": statistics.median(v for _, v in probe.samples),
                    "max": max(v for _, v in probe.samples)},
        "speed_scaled": list(scaled),
        "raw": raw,
        "setup_samples_s": setups,
        "batch_wall_s": [w for w, _ in batches],
        "share_of_wall_by_kind": kind_shares(batches),
        "err_max_bits": metric(err_max, "bits"),
        "fail_frac": metric(failed / attempted, "1"),
        "failures": failures,
        "environment": environment(),
    }
    return record, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def cli_import_s(samples: int = 3) -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ssa_lab.cli; print(time.perf_counter() - t)")
    out = []
    for _ in range(samples):
        res = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, env=dict(os.environ), timeout=120, check=True)
        out.append(float(res.stdout.strip()))
    return statistics.median(out)


def _us_per_call(fn, blocks: int = 5, block_s: float = 0.05) -> float:
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= block_s / 4:
            break
        n *= 2
    per = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per.append((time.perf_counter() - t0) / n * 1e6)
    return statistics.median(per)


def kernel_probes() -> dict[str, float]:
    """Cost per call of the discord objective's two kernels, at d = 2 and 4."""
    import numpy as np
    import ssa_lab as sl
    from ssa_lab import qcorr

    out = {}
    for d in (2, 4):
        rho = sl.random_density([2, d], seed=d)
        params = np.linspace(0.1, 1.0, qcorr.n_basis_params(d))
        basis = sl.MeasurementBasis.from_angles(d, params)
        out[f"qcorr.classical_correlation_at.d{d}.us_per_call"] = _us_per_call(
            lambda: sl.classical_correlation_at(rho, basis, 1))
        out[f"qcorr.givens_unitary.d{d}.us_per_call"] = _us_per_call(
            lambda: qcorr.givens_unitary(d, params))
    return out


# unit of a per-layer metric, by the last part of its name
UNITS = {"calls": "count", "busy_s": "s", "p50_ms": "ms", "self_s": "s", "restarts": "count",
         "converged_frac": "1", "us_per_call": "us", "import_s": "s", "proc_ms": "ms",
         "inproc_ms": "ms", "glue_s": "s", "trace_overhead_frac": "1",
         "err_max_bits": "bits", "fail_frac": "1"}


def per_layer(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    import tracing
    import workloads

    _, wls = setup(name, seed, batch_count(name, seconds / 2, 1), workdir)
    plain = run_batches([wl.items for wl in wls])
    rec = tracing.Recorder()
    rec.install()
    try:
        traced = run_batches([wl.items + wl.traced_extra for wl in wls], rec)
    finally:
        rec.uninstall()
    WORK.mkdir(parents=True, exist_ok=True)
    span_file = WORK / f"spans-{name}.jsonl"
    rec.write(str(span_file))

    values = tracing.layer_metrics(rec.spans, len(traced))
    n_items = len(wls[0].items)
    plain_wall = statistics.median(sum(r["s"] for r in res) for _, res in plain)
    traced_wall = statistics.median(sum(r["s"] for r in res[:n_items]) for _, res in traced)
    values["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    values.update(kernel_probes())
    values["cli.import_s"] = cli_import_s()
    for cmd in workloads.CLI_SUBCOMMANDS:
        for suffix, kind in (("proc_ms", f"proc.{cmd}"), ("inproc_ms", f"inproc.{cmd}")):
            ts = [r["s"] * 1e3 for _, res in traced for r in res if r["kind"] == kind]
            values[f"cli.{cmd}.{suffix}"] = statistics.median(ts) if ts else 0.0
    attempted, failed, err_max, failures = grade(plain + traced)
    values["oracle.err_max_bits"] = err_max
    values["oracle.fail_frac"] = failed / attempted

    metrics = {key: metric(value, UNITS[key.rsplit(".", 1)[1]]) for key, value in values.items()}
    record = {
        "workload": name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "untraced_batches": len(plain),
        "traced_batches": len(traced),
        "span_file": str(span_file.relative_to(ROOT)),
        "spans": len(rec.spans),
        "failures": failures,
        "environment": environment(),
    }
    return record, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    records = {}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, env=dict(os.environ), cwd=str(ROOT), timeout=900,
        )
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or len(lines) < 2:
            sys.stderr.write(res.stderr)
            return 1
        records[name] = {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}
    for name, entry in records.items():
        rec, result = entry["record"], entry["result"]
        print(f"== {name}  seed {seed}  attempted {result['attempted']}  failed {result['failed']}")
        rows = dict(result["metrics"])
        if not trace:
            rows["err_max_bits"] = rec["err_max_bits"]
            rows["fail_frac"] = rec["fail_frac"]
        for key, m in rows.items():
            print(f"   {key:48s} {m['value']:>14.6g} {m['unit']}")
        if not trace:
            print(f"   (item_ms_tail is p{rec['tail_percentile']})")
        for f in rec["failures"]:
            print(f"   FAILED item: {json.dumps(f)}")
    correct = all(e["result"]["correct"] for e in records.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(e["result"]["attempted"] for e in records.values()),
        "failed": sum(e["result"]["failed"] for e in records.values()),
        "metrics": {f"{n}.{k}": m for n, e in records.items()
                    for k, m in e["result"]["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and print it (a setup_s sample)")
    args = parser.parse_args(argv)

    if not (SRC / "ssa_lab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ssa_lab package under {SRC}; run from a full checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            count = batch_count(args.workload, args.seconds, MIN_BATCHES)
            setup_s, _ = setup(args.workload, args.seed, count, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = per_layer if args.trace else end_to_end
        record, result = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
