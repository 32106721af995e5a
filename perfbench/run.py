#!/usr/bin/env python3
"""hierclass benchmark: one workload per process.

    python3 perfbench/run.py --workload pipeline-k8 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload's inputs are generated from ``--seed``. Set-up runs
``SETUP_REPEATS`` times; then whole iterations of the timed region run,
cycling over the workload's inputs, for as many iterations as end nearest
to ``--seconds`` (every input runs at least once). Each iteration's outputs are
checked outside the timed region.

While the untraced timed region runs, a timer interrupts it every 0.1 s to
run a probe: a fixed reference loop that does not touch the library
(``probe_s``, ``HostProbe``). Other tenants of a shared host slow it by up
to half for minutes at a time, which no median over a run of a few tens of
seconds removes. ``wall_probes`` is each timed part's own time (its wall
time less the probes inside it) divided by the median probe inside it, so it
is the program's time in units of the host's current speed; the part's own
time in seconds, ``wall_s``, is reported beside it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` each input runs untraced and
then traced (module attributes wrapped from outside the package, see
tracing.py), and the last line carries the per-layer metrics. The line
before it is a JSON detail record: environment, per-iteration times, sample
counts, quality per input, artifact digests and failed checks. Spans are
written as JSON lines under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
BLAS_THREADS = 1
PROBE_LOOP = 20_000  # reference loop: interpreter steps ...
PROBE_MATMULS = 40  # ... and 32 x 32 numpy products, about 2 ms together
PROBE_INTERVAL_S = 0.1  # one probe per 0.1 s of timed region
MAX_LOOP_S = 150.0  # keeps a run under its 180 s limit on a much slower machine


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_record() -> dict:
    """BLAS name and version from numpy's build record, and the thread count
    in effect as reported by the loaded OpenBLAS itself when it can be asked."""
    import ctypes

    import numpy as np

    info = {"threads_requested": BLAS_THREADS, "threads_in_effect": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    # the OpenBLAS that numpy wheels bundle; dlopen returns the loaded instance
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy*.libs/*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads_in_effect"] = int(fn())
                return info
    return info


def git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas_record(),
        "git_revision": git_revision(),
        "seed": seed,
        "processes": 1,
        "library_threads": 1,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def summary(values) -> dict:
    values = sorted(values)
    return {"n": len(values), "median": median(values), "min": values[0], "max": values[-1]} if values else {"n": 0}


def import_seconds(src: Path) -> float:
    """Median time, over SETUP_REPEATS fresh interpreters, to import numpy,
    the package and the benchmark modules that import it."""
    code = ("import time; t = time.perf_counter(); import numpy, hierclass, tracing, workloads; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "perfbench")])}
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True, timeout=120)
        times.append(float(proc.stdout))
    return median(times)


def probe_s(matrix) -> float:
    """Seconds a fixed reference loop takes now: interpreter work and small
    numpy calls, the kind of work the library's own inner loops do. It does
    not touch the library, so it reads the host's speed, not the program's."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    x = matrix
    for _ in range(PROBE_MATMULS):
        x = np.tanh(x @ matrix * 0.01)
    return time.perf_counter() - t0


class HostProbe:
    """Reads the host's speed while the timed region runs.

    A SIGALRM timer runs ``probe_s`` every PROBE_INTERVAL_S on the main
    thread, between two bytecodes of whatever the library is doing; calls
    into C finish first. Each probe's start and duration are kept, so a
    timed part's own time is its wall time less the probes inside it, and
    the host's speed during the part is the median probe inside it."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe_s(self.matrix)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def part(self, start: float, end: float) -> tuple[float, float]:
        """The part's own seconds and the median probe during it (the
        nearest probe when the part was too short to hold one)."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))[1]] if self.samples else [1.0]
        return end - start - sum(inside), median(inside)


def iteration_time(parts: dict, parts_per_iteration: int) -> float:
    """One iteration's time with every part at its median visit.

    A part is a whole iteration on one input, or one timed piece of it (a
    shard of score-100k). Inputs cycle, so a part's median over its visits,
    averaged over parts and scaled to the parts one iteration runs, is one
    iteration's time."""
    if not parts:
        return 0.0
    return parts_per_iteration * sum(median(v) for v in parts.values()) / len(parts)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    src = ROOT / "src"
    if not (src / "hierclass" / "__init__.py").is_file():
        print(f"perfbench: no hierclass package under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import numpy as np

    import hierclass
    import tracing
    import workloads as wl
    if Path(hierclass.__file__).resolve().parent != (src / "hierclass").resolve():
        print(f"perfbench: hierclass imported from {hierclass.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    traced = bool(args.trace)
    run_id = f"{workload.name}-seed{args.seed}"
    tracer = tracing.Tracer(run_id) if traced else None
    checks = wl.Checks()
    import_s = import_seconds(src)
    workdir = WORKDIR / run_id
    datadir = workdir / "data"  # generated files, removed when the run ends

    # set-up, repeated; the last repetition's inputs are used
    setup_times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer:
            with tracer, tracer.root("bench.setup", f"setup{rep}"):
                inputs = workload.setup(args.seed, datadir)
        else:
            inputs = workload.setup(args.seed, datadir)
        setup_times.append(time.perf_counter() - t0)

    walls, traced_walls = [], []
    parts: dict[tuple, list[float]] = {}  # (input, part) -> that part's time on each visit
    parts_per_iteration = 1
    parts_rel: dict[tuple, list[float]] = {}  # (input, part) -> own time / probe time
    host = HostProbe(np.random.default_rng(0).standard_normal((32, 32)))

    steps: dict[str, list[float]] = {}
    rates: dict[str, list[float]] = {}
    first: dict[int, wl.Result] = {}
    seen: dict = {}
    error = None
    loop_start = time.perf_counter()
    try:
        workload.warm_up(inputs, checks)
        i = 0
        while True:
            inp = inputs[i % len(inputs)]
            with host:
                t0 = time.perf_counter()
                out = workload.execute(inp, checks)
                t_end = time.perf_counter()
            iteration_parts = out.get("parts") or {"all": (t0, t_end)}
            parts_per_iteration = len(iteration_parts)
            own = {}
            for key, (start, end) in iteration_parts.items():
                own[key], reference = host.part(start, end)
                parts.setdefault((i % len(inputs), key), []).append(own[key])
                parts_rel.setdefault((i % len(inputs), key), []).append(own[key] / reference)
            walls.append(sum(own.values()))
            result = workload.verify(inp, out, checks, seen)
            if tracer:
                # the same input again, traced; its digests must match the untraced ones
                with tracer, tracer.root("bench.iteration", f"iter{i}"):
                    t1 = time.perf_counter()
                    traced_out = workload.execute(inp, checks)
                    traced_walls.append(time.perf_counter() - t1)
                workload.verify(inp, traced_out, checks, seen)
            for name, t in result.steps.items():
                steps.setdefault(name, []).append(t)
            for name, rows in result.rows.items():
                rates.setdefault(f"{name}_rows_per_s", []).append(rows / result.steps[name])
            first.setdefault(i % len(inputs), result)
            i += 1
            # stop where the loop ends nearest to --seconds: another iteration
            # starts only if it would end less than half an iteration late
            per_iter = median(walls) + median(traced_walls)
            ends = time.perf_counter() - loop_start + per_iter
            if i >= len(inputs) and (ends - per_iter / 2 > args.seconds or ends > MAX_LOOP_S):
                break
        scored = [workload.score(inp, checks) for inp in inputs]
    except Exception as exc:  # reported as a failed run, not a crash
        error = f"{checks.last_op}: {type(exc).__name__}: {exc}"
        checks.failures.append(error)
        scored = []
    loop_s = time.perf_counter() - loop_start
    shutil.rmtree(datadir, ignore_errors=True)

    values = {
        "wall_probes": iteration_time(parts_rel, parts_per_iteration),
        "wall_s": iteration_time(parts, parts_per_iteration),
        "probe_ms": 1000.0 * median([d for _, d in host.samples]),
        "setup_s": import_s + median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name, samples in rates.items():
        values[name] = median(samples)
    quality = [first[k].quality for k in sorted(first)]
    for name in sorted({q for row in quality for q in row}):
        values[name] = float(np.mean([row[name] for row in quality if name in row]))
    for row in scored:
        for name in row:
            values.setdefault(name, float(np.mean([r[name] for r in scored])))
    if tracer:
        values.update(tracing.layer_metrics(tracer, "bench.iteration", "bench.setup"))
        values["trace.overhead_ratio"] = sum(traced_walls) / sum(walls) - 1.0 if walls else 0.0
        spans_path = workdir / "spans.jsonl"
        tracer.write_jsonl(spans_path)

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = error is None and not missing and checks.failed == 0
    detail = {
        "workload": workload.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "trace": int(traced),
        "environment": environment(args.seed, np.__version__),
        "input_seeds": workload.input_seeds(args.seed),
        "seconds": args.seconds,
        "loop_s": loop_s,
        "import_s": import_s,
        "setup_s": summary(setup_times),
        "wall_s": summary(walls),
        "probe_s": summary([d for _, d in host.samples]),
        "part_samples": {f"{k[0]}/{k[1]}": v for k, v in parts.items()},
        "part_probe_samples": {f"{k[0]}/{k[1]}": v for k, v in parts_rel.items()},
        "traced_wall_s": summary(traced_walls),
        "steps_s": {name: summary(v) for name, v in steps.items()},
        "rows_per_s": {name: summary(v) for name, v in rates.items()},
        "quality_per_input": quality,
        "scored_per_input": scored,
        "digests": seen,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_ratio": checks.failed / max(1, checks.attempted),
        "failures": checks.failures[:20],
        "error": error,
        "missing_metrics": missing,
        "values": values,
    }
    if tracer:
        detail["layers"] = tracing.layer_breakdown(tracer.spans, "bench.iteration")
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["spans"] = len(tracer.spans)
        detail["unwrapped"] = sorted(tracer.unwrapped)

    shown = wanted if traced else wanted + [m for m in spec["per_layer"] if m["name"] in ("wall_s", "probe_ms")]
    for m in shown:
        if m["name"] in values:
            print(f"{workload.name:12s} {m['name']:38s} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"{workload.name:12s} {'failed_ratio':38s} {detail['failed_ratio']:>16.6g} "
          f"({checks.failed}/{checks.attempted})")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
