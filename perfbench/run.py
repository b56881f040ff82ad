"""qdynmaps benchmark: seeded audit workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload channel_audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 2      # every workload, short

Each run is one process and a closed loop with one client: the next item is
sent only after the previous one finished and was checked against the
oracles. BLAS is pinned to one thread. `--trace 0` reports the end-to-end
metrics; `--trace 1` first runs untraced for half the time, then replays the
same items with every public qdynmaps function wrapped in a span, and reports
per-layer metrics plus the tracing overhead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True  # keep the checkout clean; every run compiles the same way

import numpy as np  # noqa: E402  (after the BLAS pin)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"  # input files and reports of the cli workload
SPANS = ROOT / ".perfbench_out"  # span dumps of traced runs
SETUP_REPS = 3

E2E = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = [
    ("matcore.self_s", "s", "lower"),
    ("matcore.min_eig.calls", "count", "lower"),
    ("matcore.min_eig.self_s", "s", "lower"),
    ("matcore.min_eig_batch.calls", "count", "lower"),
    ("matcore.min_eig_batch.matrices", "count", "lower"),
    ("matcore.min_eig_batch.self_s", "s", "lower"),
    ("matcore.herm_eig.calls", "count", "lower"),
    ("matcore.herm_eig.self_s", "s", "lower"),
    ("matcore.unitary_at.calls", "count", "lower"),
    ("matcore.unitary_at.self_s", "s", "lower"),
    ("matcore.partial_trace.calls", "count", "lower"),
    ("matcore.partial_trace.self_s", "s", "lower"),
    ("matcore.kron.calls", "count", "lower"),
    ("matcore.kron.self_s", "s", "lower"),
    ("states.self_s", "s", "lower"),
    ("states.from_bloch.calls", "count", "lower"),
    ("states.from_bloch.self_s", "s", "lower"),
    ("states.validate.calls", "count", "lower"),
    ("states.matrix_from_json.self_s", "s", "lower"),
    ("states.matrix_to_json.self_s", "s", "lower"),
    ("states.json.bytes_read", "B", "lower"),
    ("states.json.bytes_written", "B", "lower"),
    ("channels.self_s", "s", "lower"),
    ("channels.choi_of.calls", "count", "lower"),
    ("channels.choi_of.self_s", "s", "lower"),
    ("channels.transfer_from_choi.self_s", "s", "lower"),
    ("channels.kraus_from_choi.self_s", "s", "lower"),
    ("channels.extend_with_identity.calls", "count", "lower"),
    ("channels.extend_with_identity.self_s", "s", "lower"),
    ("channels.is_cp.self_s", "s", "lower"),
    ("channels.is_positive_map.self_s", "s", "lower"),
    ("channels.is_n_positive.self_s", "s", "lower"),
    ("channels.search.calls", "count", "lower"),
    ("channels.search.samples", "count", "lower"),
    ("channels.search.violation_ratio", "ratio", "higher"),
    ("opendyn.self_s", "s", "lower"),
    ("opendyn.reduced_map.calls", "count", "lower"),
    ("opendyn.reduced_map.self_s", "s", "lower"),
    ("opendyn.reduced_map.per_time", "calls/point", "lower"),
    ("opendyn.unitary_at.per_time", "calls/point", "lower"),
    ("opendyn.pechukas_witness.calls", "count", "lower"),
    ("opendyn.pechukas_witness.self_s", "s", "lower"),
    ("opendyn.extend_linearly.calls", "count", "lower"),
    ("opendyn.extend_linearly.self_s", "s", "lower"),
    ("opendyn.inconsistency_analysis.self_s", "s", "lower"),
    ("opendyn.check_consistency.self_s", "s", "lower"),
    ("compatdomain.self_s", "s", "lower"),
    ("compatdomain.membership.calls", "count", "lower"),
    ("compatdomain.membership.self_s", "s", "lower"),
    ("compatdomain.boundary_radius.calls", "count", "lower"),
    ("compatdomain.boundary_radius.self_s", "s", "lower"),
    ("compatdomain.membership.per_radius", "calls/radius", "lower"),
    ("compatdomain.landscape.self_s", "s", "lower"),
    ("compatdomain.convexity_check.self_s", "s", "lower"),
    ("compatdomain.membership.per_convexity_trial", "calls/trial", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.cmd_check.self_s", "s", "lower"),
    ("cli.cmd_paper_case.self_s", "s", "lower"),
    ("cli.cmd_reduce.self_s", "s", "lower"),
    ("cli.cmd_domain.self_s", "s", "lower"),
    ("cli.input_errors", "count", "higher"),
    ("cli.nonfinite_accepted", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

MODULES = ("config", "matcore", "states", "channels", "opendyn", "compatdomain", "cli")


def load_qdynmaps() -> SimpleNamespace:
    """Import qdynmaps afresh from this checkout's sources."""
    for name in [m for m in sys.modules if m == "qdynmaps" or m.startswith("qdynmaps.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qdynmaps")
    if Path(pkg.__file__).resolve().parent != SRC / "qdynmaps":
        raise ImportError(f"qdynmaps imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"qdynmaps.{m}") for m in MODULES})


def setup(wl, seed: int):
    """Import, generate the seeded items, write their files and warm up.

    Repeated SETUP_REPS times from scratch; the median is setup_s and the
    last repetition's items are the ones measured."""
    times = []
    workdir = None
    try:
        for _ in range(SETUP_REPS):
            if workdir:
                shutil.rmtree(workdir)
            t0 = time.perf_counter()
            qd = load_qdynmaps()
            rng = np.random.default_rng([seed, list(workloads.WORKLOADS).index(wl.name)])
            workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
            items = wl.items(qd, rng, workdir)
            for it in items[:len(wl.rotation)]:
                wl.prepare(it)
                try:
                    wl.run(qd, it)
                except Exception:  # failures are counted when the item is measured
                    pass
            times.append(time.perf_counter() - t0)
    except BaseException:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        raise
    return qd, items, statistics.median(times), workdir


class Tally:
    """Item latencies, failures and workload counters of one pass."""

    def __init__(self):
        self.lat: list[float] = []
        self.stats: Counter = Counter()
        self.errors: list[str] = []
        self.failed = 0

    @property
    def busy(self) -> float:
        return sum(self.lat)

    def attempt(self, wl, qd, it, tracer=None) -> None:
        """Run one item (only the library call is timed), then check it."""
        wl.prepare(it)
        if tracer:
            tracer.install()
            tracer.begin_item()
        t0 = time.perf_counter()
        try:
            out, err = wl.run(qd, it), None
        except Exception as exc:  # a raising item is a failed item
            out, err = None, exc
        self.lat.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_item()
            tracer.uninstall()
        if err is None:
            try:
                wl.check(it, out, self.stats)
            except Exception as exc:  # an oracle mismatch or malformed output
                err = exc
        if err is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{it.kind}: {type(err).__name__}: {err}")


def measure(wl, qd, items, seconds: float, tracer=None):
    """Closed loop over the item pool for `seconds` of wall time.

    With a tracer every item runs twice, untraced and traced, in alternating
    order, so the two passes see the same items under the same conditions."""
    plain, traced = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        it = items[i % len(items)]
        if tracer is None:
            plain.attempt(wl, qd, it)
        else:
            pair = ((plain, None), (traced, tracer))
            for tally, tr in (pair if i % 2 == 0 else pair[::-1]):
                tally.attempt(wl, qd, it, tr)
        i += 1
    return plain, traced


def end_to_end(res, setup_s: float) -> dict:
    ms = [x * 1e3 for x in res.lat]
    values = {
        "setup_s": setup_s,
        "items_per_s": len(ms) / res.busy,
        "item_p50_ms": float(np.percentile(ms, 50)),
        "item_p90_ms": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": E2E[k]} for k, v in values.items()}


def per_layer(tracer, stats: Counter, overhead: float, nonfinite: int) -> dict:
    s = tracer.summary()
    calls, self_s, mod_self, pc = s["calls"], s["self_s"], s["module_self_s"], s["parent_calls"]
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "matcore.min_eig_batch.matrices": counts["matcore.min_eig_batch.matrices"],
        "channels.search.calls": counts["channels.search.calls"],
        "channels.search.samples": counts["channels.search.samples"],
        "channels.search.violation_ratio": ratio(stats["search.certified"],
                                                 stats["search.known_nonpositive"]),
        "opendyn.reduced_map.per_time": ratio(calls.get("opendyn.reduced_map", 0),
                                              stats["time_points"]),
        "opendyn.unitary_at.per_time": ratio(calls.get("opendyn.unitary_at", 0),
                                             stats["time_points"]),
        "compatdomain.membership.per_radius": ratio(
            pc[("compatdomain.membership", "compatdomain.boundary_radius")],
            calls.get("compatdomain.boundary_radius", 0)),
        "compatdomain.membership.per_convexity_trial": ratio(
            pc[("compatdomain.membership", "compatdomain.convexity_check")],
            stats["convexity_trials"]),
        "states.json.bytes_read": stats["json.bytes_read"],
        "states.json.bytes_written": stats["json.bytes_written"],
        "cli.input_errors": stats["cli.input_errors"],
        "cli.nonfinite_accepted": nonfinite,
        "trace.overhead_frac": overhead,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if name in special:
            value = special[name]
        elif fn in tracing.MODULES:
            value = mod_self[fn]
        elif stat == "calls":
            value = calls.get(fn, 0)
        else:
            value = self_s.get(fn, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = None
    try:
        qd, items, setup_s, workdir = setup(wl, seed)
        if not trace:
            plain, _ = measure(wl, qd, items, seconds)
            metrics, runs = end_to_end(plain, setup_s), [plain]
        else:
            tracer = tracing.Tracer(qd)
            plain, traced = measure(wl, qd, items, seconds, tracer)
            SPANS.mkdir(exist_ok=True)
            tracer.write(SPANS / f"spans-{name}.npz")
            nonfinite = workloads.WORKLOADS["cli_reports"].nonfinite_accepted(
                qd, np.random.default_rng(seed), workdir)
            metrics = per_layer(tracer, traced.stats, traced.busy / plain.busy - 1.0, nonfinite)
            runs = [plain, traced]
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    attempted = sum(len(r.lat) for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for line in r.errors:
            print(f"oracle mismatch: {line}")
    for k, v in environment().items():
        print(f"env {k} {v}")
    res = runs[-1]
    beyond = len(res.lat) - int(np.ceil(0.9 * len(res.lat)))
    print(f"workload {name} seed {seed}: {len(res.lat)} items in {res.busy:.3f} s busy,"
          f" p90 from {len(res.lat)} samples ({beyond} beyond it)")
    print(f"failed_frac {failed / attempted:.6g} 1 ({failed} of {attempted})")
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; prints all metrics with units."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name}: exit code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        metrics = dict(res["metrics"])
        if not args.trace:
            metrics["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "1"}
        for k, v in metrics.items():
            print(f"{name:<16} {k:<46} {v['value']:>14.6g} {v['unit']}")
            total["metrics"][f"{name}.{k}"] = v
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdynmaps" / "__init__.py").is_file():
        print(f"error: no qdynmaps sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)  # NaN inputs warn inside the library
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
