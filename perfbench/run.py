"""Benchmark of fraudrings: one workload per run, or all of them.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 30 --trace 0

The timed operation repeats for about ``--seconds`` seconds, at least three
times, in this process.  Its inputs are made from ``--seed`` by a child
set-up process, closed and waited for before the run ends, which sets up
back to back for about a second and a half before each repetition, and at
least three times in all; ``setup_s`` is the median.  Set-ups are spread
over the run, so ``setup_s`` and ``wall_s`` are taken over the same stretch
of time, and set-up memory is not in ``peak_rss_mb``, this process's peak.
The outputs are checked, and every failed operation or check counts in
``failed``.

The run prints every metric with its unit, its checks and its environment, and
as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json.  With ``--trace 1`` repetitions alternate between untraced and
traced; the metrics are the ``per_layer`` list, taken from spans recorded
around calls into each fraudrings module, plus the tracing overhead (traced
minus untraced ``wall_s``).  ``--workload all`` runs each workload in its own
process and prints a combined last line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pickle
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
SETUP_BURST_S = 1.5
MIN_REPS = 3
MAX_REPS = 200
SETUP_TIMEOUT_S = 150
EVENT_KINDS = ("new_account", "hard_link", "soft_link")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "fraudrings" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fraudrings sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import fraudrings

    if Path(fraudrings.__file__).resolve().parent != (src / "fraudrings").resolve():
        sys.exit(f"perfbench: fraudrings imported from {fraudrings.__file__}, not {src}")


def _blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _host_ref_ms() -> float:
    """Time of a fixed pure-Python loop that does not call fraudrings.

    Timed before every repetition, its median shows how fast the host ran
    while the workload was measured, so a shift in ``wall_s`` between two runs
    can be told apart from a shift in the host's speed.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


def environment(args, sizes: dict, reps: dict, host_ref_ms: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "repetitions": reps,
        "host_ref_ms": host_ref_ms,
        "sizes": sizes,
    }


def _percentiles_ms(samples_s: list[float]) -> tuple[float, float, str]:
    """Median and tail in ms, and a label naming the tail percentile and sample count."""
    import workloads

    samples_ms = [s * 1e3 for s in samples_s]
    if not samples_ms:
        return 0.0, 0.0, "no samples"
    t = workloads.tail(samples_ms)
    p50 = statistics.median(samples_ms)
    if t is None:
        return p50, 0.0, f"n={len(samples_ms)}, too few for a tail"
    p, value, n = t
    return p50, value, f"tail=p{p:g}, n={n}"


class SetupProcess:
    """The set-up process: a child of this one that runs ``workloads.setup_burst``.

    Each request is one JSON line on the child's stdin; the child pickles the
    burst's result to a file and answers with its path on one line.  ``close``
    ends the child and waits for it, on every path out of ``measure``.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-server"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def burst(self, *params) -> list[dict]:
        self.proc.stdin.write(json.dumps(params) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], SETUP_TIMEOUT_S)
        if not ready:
            raise TimeoutError(f"set-up gave no answer in {SETUP_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"set-up process ended with code {self.proc.wait()}")
        path = Path(line.strip())
        with open(path, "rb") as fh:
            made = pickle.load(fh)
        path.unlink()
        return made

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


def serve_setups() -> int:
    """The set-up process's loop: one set-up burst per request line, until stdin closes."""
    import workloads

    answers = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # anything the program prints stays out of the answers
    for line in sys.stdin:
        params = json.loads(line)
        made = workloads.setup_burst(*params)
        path = Path(params[3]) / f"burst{params[5]}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(made, fh)
        answers.write(f"{path}\n")
        answers.flush()
    return 0


def measure(name: str, args, work: Path) -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    size = workloads.SIZES[args.size][name]
    checks: list[workloads.Check] = []
    inp = work / "setup0"
    setups: list[dict] = []

    def set_up(budget_s: float) -> float:
        t0 = time.perf_counter()
        setups.extend(setup_proc.burst(
            name, args.seed, args.size, str(work), bool(args.trace), len(setups), budget_s,
        ))
        return time.perf_counter() - t0

    tracer = tracing.Tracer()
    times: dict[bool, list[float]] = {False: [], True: []}
    latencies: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
    roots = []
    outs: list[tuple[Path, bool]] = []
    quality: dict = {}
    operations = failed_ops = 0
    host_ref: list[float] = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    setup_proc = SetupProcess()
    try:
        while True:
            # the set-up time is not part of the measured seconds
            deadline += set_up(SETUP_BURST_S)
            traced = bool(args.trace) and k % 2 == 1
            out = work / f"rep{k}"
            out.mkdir()
            ctx = wl.prepare(inp, size)
            host_ref.append(_host_ref_ms())
            saved = tracing.install(tracer) if traced else []
            root = tracer.open("bench.rep", "bench") if traced else None
            t0 = time.perf_counter()
            try:
                result = wl.run(ctx, out)
            except Exception:  # a stage error is a failed operation, not the end of the run
                result = None
                traceback.print_exc()
            finally:
                elapsed = time.perf_counter() - t0
                if root is not None:
                    tracer.close(root)
                tracing.uninstall(saved)
            del ctx
            k += 1
            if result is None:
                operations += 1
                failed_ops += 1
            else:
                wl.finish(result, out)
                if not quality:
                    quality = wl.score(inp, size, result)
                result.value = None
                operations += result.operations
                failed_ops += result.failed
                times[traced].append(elapsed)
                for kind, values in result.latencies.items():
                    latencies[traced].setdefault(kind, []).extend(values)
                if root is not None:
                    roots.append(root)
                outs.append((out, traced))
            done = times[False] + times[True]
            if k >= MAX_REPS or (
                k >= MIN_REPS and done and time.perf_counter() + statistics.median(done) > deadline
            ):
                break
        while len(setups) < SETUPS:
            set_up(0.0)
    finally:
        setup_proc.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not times[False] or (args.trace and not times[True]):
        raise RuntimeError("no repetition of the timed operation succeeded")
    checks.append(workloads.Check(
        f"same seed gives identical inputs in all {len(setups)} set-ups",
        len({m["digest"] for m in setups}) == 1,
    ))

    checks += wl.checks(inp, size, [o for o, _ in outs])
    names = [p.name for p in wl.artifacts(outs[0][0])]
    first = workloads.digest(outs[0][0] / n for n in names)
    for traced in (False, True):
        later = [o for o, t in outs[1:] if t == traced]
        if later:
            checks.append(workloads.Check(
                f"{len(later)} {'traced' if traced else 'untraced'} repetitions write "
                "artifacts byte-identical to the first untraced one",
                all(workloads.digest(o / n for n in names) == first for o in later),
            ))
    failed = failed_ops + sum(not c.ok for c in checks)
    attempted = operations + len(checks)

    sizes = dict(setups[0]["sizes"])
    sizes.update(quality.pop("sizes", {}))
    wall_s = statistics.median(times[False])
    report = {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "sizes": sizes,
        "reps": {"untraced": len(times[False]), "traced": len(times[True])},
        "host_ref_ms": statistics.median(host_ref),
        "setup_s": [m["setup_s"] for m in setups],
        "wall_s": times[False],
    }
    shown = [
        ("setup_s", statistics.median(report["setup_s"]), "s",
         f"median of {len(report['setup_s'])} set-ups"),
        ("wall_s", wall_s, "s", f"median of {len(times[False])} untraced repetitions"),
        ("peak_rss_mb", peak_rss_mb, "MB", "peak RSS of the measuring process"),
        ("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} failed"),
        ("coverage", quality["coverage"], "ratio", ""),
        ("precision", quality["precision"], "ratio", ""),
        ("purity", quality["purity"], "ratio", ""),
    ]
    if "stream_coverage" in quality:
        shown.append(("stream_coverage", quality["stream_coverage"], "ratio",
                      f"{sizes['streamed_fraud_clustered']} of {sizes['streamed_fraud']} "
                      "streamed fraud accounts clustered"))
        shown.append(("streamed_fraud", sizes["streamed_fraud"], "count",
                      f"of {sizes['streamed']} streamed accounts"))
        shown.append(("stream_precision", quality["stream_precision"], "ratio",
                      f"of {sizes['streamed_clustered']} streamed accounts clustered"))
        for kind in EVENT_KINDS:
            p50, tail_v, label = _percentiles_ms(latencies[False].get(kind, []))
            shown.append((f"{kind}_p50_ms", p50, "ms", "untraced"))
            shown.append((f"{kind}_tail_ms", tail_v, "ms", label))
    report["shown"] = shown

    if args.trace:
        per_rep = [tracing.rep_layer_metrics(tracer.spans, r) for r in roots]
        layer = tracing.median_metrics([m for m, _ in per_rep])
        layer["evaluation.generate_s"] = float(statistics.median(m["generate_s"] for m in setups))
        layer["pipeline.artifact_bytes"] = sum(p.stat().st_size for p in wl.artifacts(outs[0][0]))
        layer["incremental.supernodes_end"] = sizes.get("supernodes_end", 0)
        layer["incremental.edges_end"] = sizes.get("edges_end", 0)
        for metric in ("coverage", "precision", "purity"):
            layer[f"evaluation.{metric}"] = quality[metric]
        layer["incremental.stream_coverage"] = quality.get("stream_coverage", 0.0)
        layer["incremental.streamed_fraud"] = sizes.get("streamed_fraud", 0)
        layer["incremental.stream_precision"] = quality.get("stream_precision", 0.0)
        for kind in EVENT_KINDS:
            spans = [d for _, events in per_rep for d in events[kind]]
            p50, tail_v, label = _percentiles_ms(spans)
            layer[f"incremental.{kind}.p50_ms"] = p50
            layer[f"incremental.{kind}.tail_ms"] = tail_v
        layer["trace.overhead_s"] = statistics.median(times[True]) - wall_s
        report["layer"] = layer
        report["dominant"] = wl.DOMINANT
        report["traced_wall_s"] = times[True]
        report["spans"] = {"setups": [m["spans"] for m in setups], "measured": tracer.dump()}
    return report


def _print_report(name: str, args, report: dict, bench: dict) -> dict:
    print(f"== perfbench {name}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  size={args.size}")
    for metric, value, unit, note in report["shown"]:
        print(f"  {metric:<22} {value:>14.6g} {unit:<6} {note}")
    print("  set-up seconds: " + " ".join(f"{t:.4g}" for t in report["setup_s"]))
    print("  untraced repetition seconds: " + " ".join(f"{t:.4g}" for t in report["wall_s"]))
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if args.trace:
        layer = report["layer"]
        wall = statistics.median(report["traced_wall_s"])
        print(f"  per-layer (median of {len(report['traced_wall_s'])} traced repetitions, "
              f"traced wall {wall:.6g} s):")
        for metric in units:
            print(f"    {metric:<38} {layer[metric]:>14.6g} {units[metric]}")
        print("  self-time shares of traced wall_s:")
        for lay in ("graph", "embedding", "clustering", "pipeline", "incremental", "bench"):
            print(f"    {lay:<12} {layer[f'{lay}.self_s'] / wall:7.1%}")
        expected = report["dominant"]
        share = sum(layer[m] for m in expected) / wall
        print(f"  expected to dominate: {' + '.join(expected)} = {share:.1%} of traced wall_s, "
              + ("confirmed" if share > 0.5 else "DIFFERS from the expectation"))
        if "spans_file" in report:
            print(f"  spans written to {report['spans_file']}")
    for c in report["checks"]:
        print(f"  check {'PASS' if c.ok else 'FAIL'}  {c.name}" + (f"  ({c.detail})" if c.detail else ""))
    env = environment(args, report["sizes"], report["reps"], report["host_ref_ms"])
    print("  environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        values = {m: report["layer"][m] for m in units}
        listed = bench["per_layer"]
    else:
        by_name = {m: v for m, v, _, _ in report["shown"]}
        listed = bench["end_to_end"]
        values = {m["name"]: by_name[m["name"]] for m in listed}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def run_one(name: str, args) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work_root = HERE / ".work"
    work = work_root / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = measure(name, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        path = work_root / f"spans-{name}-seed{args.seed}.json"
        path.write_text(json.dumps(report.pop("spans")))
        report["spans_file"] = str(path.relative_to(ROOT))
    return _print_report(name, args, report, bench)


def run_all(args) -> dict:
    """Each workload in its own process, so each peak RSS is its own."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    # One BLAS thread unless the caller says otherwise, set before numpy loads
    # and inherited by the set-up process: on a host of few shared cores a
    # second BLAS thread waits on the other tenants, and the times then
    # measure the scheduler.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _import_program()
    if (sys.argv[1:] if argv is None else argv) == ["--setup-server"]:
        return serve_setups()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
