"""nakex benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kex_braid --seed 1 --seconds 20 --trace 0

One operation at a time, in a closed loop with one caller.  The loop runs
until ``--seconds`` of loop wall time have passed; inputs are generated in
chunks and gated in chunks with the clock stopped.  With ``--trace 1`` the
same untraced pass runs first, then the layer wrappers are installed and the
same input stream is replayed (for at most ``--seconds`` more), giving the
per-layer metrics, the tracing overhead and a fingerprint that must equal the
untraced one.

``setup_s`` is the time from the first statement of this script, before
nakex is imported, through input generation and warm-up to the first timed
operation.  This process's own set-up and four more, each in a fresh process
(``--setup-only``), give five cold set-ups; their median is reported.

The host's speed drifts, so a calibration kernel runs between operations and
reported times are scaled to a fixed reference speed (raw times are printed in
brackets).  The process keeps to one CPU.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The exit code is 1 when a correctness gate fails and 2 when the benchmark
cannot run (for example, no nakex sources under ``src/``).
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

DEFAULT_SEED = 1
SETUP_REPS = 5      # cold set-ups: this process's own and four in fresh processes
CHUNK = 60          # inputs generated, and outputs gated, per chunk
MIN_P90_SAMPLES = 100
DIGEST_SIZE = 16
TRACE_METRICS = ("trace.ops", "trace.loop_s", "trace.overhead_ratio")
CAL_EVERY = 0.05      # seconds of loop time between calibrations
# Calibration kernels per second at the reference speed, about the middle of
# the 3000-5000/s that a 2-core x86-64 box (2.0 GHz, Python 3.11) shows as
# its neighbours come and go.  Times are reported scaled to this speed.
CAL_REFERENCE = 4000.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_benchmark() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def _import_nakex():
    if not os.path.isfile(os.path.join(SRC, "nakex", "__init__.py")):
        _fail(f"no nakex sources under {SRC}")
    sys.path.insert(0, SRC)
    import nakex

    if os.path.dirname(os.path.dirname(os.path.abspath(nakex.__file__))) != SRC:
        _fail(f"imported nakex from {nakex.__file__}, not from {SRC}")
    import workloads

    return workloads


def _git_commit() -> str:
    """HEAD of the checkout, if the checkout is itself a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def _environment(seed: int, nproc: int) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "nproc": nproc,
        "cpus_used": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _check_layer_names(bench: dict, spans) -> None:
    """Exit 2 unless BENCHMARK.json lists exactly the per-layer metrics produced."""
    produced = set(spans.layer_metrics(spans.Tracer(), sessions=0)) | set(TRACE_METRICS)
    listed = {m["name"] for m in bench["per_layer"]}
    if produced != listed:
        _fail(f"per-layer metrics listed but not produced: {sorted(listed - produced)}; "
              f"produced but not listed: {sorted(produced - listed)}")


def _pin_to_one_cpu() -> None:
    """Keep the process on one CPU.  The session workload's two threads hand
    the interpreter lock back and forth several times per session; across two
    virtual CPUs each hand-over waits for the other CPU to wake, which took
    3-4x longer, and varied from run to run, whenever the host was busy."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _clear_caches(normal_form_only: bool = False) -> None:
    """Empty the library's lru caches, so that a pass starts from a known state."""
    from nakex import braid, ldops

    fns = (braid.normal_form,) if normal_form_only else (braid.normal_form, ldops.laver_table)
    for fn in fns:
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


class WarningCounter:
    """Counts warnings by category instead of printing them."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def __call__(self, message, category, *args, **kwargs):
        name = category.__name__
        self.counts[name] = self.counts.get(name, 0) + 1


def _timed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/timed/{seed}")


def _warmup_rng(workload: str) -> random.Random:
    # the same warm-up inputs for every seed, so set-up does the same work
    return random.Random(f"perfbench/{workload}/warmup")


def _cold_setup_seconds(workload: str) -> float:
    """One cold set-up in a fresh process (``run.py --setup-only``)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def warm_up(cls) -> None:
    """Cache reset, warm-up inputs, one warm-up pass over the mix."""
    _clear_caches()
    warm = cls(_warmup_rng(cls.name), warmup=True)
    warm.open()
    try:
        inputs = [warm.make_input() for _ in warm.cycle]
        for i, inp in enumerate(inputs):
            warm.prepare(inp, -1 - i)()
    finally:
        warm.close()


def _calibration_kernel() -> int:
    """Fixed pure-Python work: the yardstick for the machine's current speed."""
    table = {}
    total = 0
    for i in range(1500):
        item = (i, i + 1, i * 3)
        table[i & 63] = item
        total += item[1] * 7 % 13
    return total


def calibrate() -> float:
    """Calibration kernels per second, best of three (about 1 ms)."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        _calibration_kernel()
        best = min(best, clock() - t0)
    return 1.0 / best


def _machine_speed() -> float:
    """Current speed as a share of the reference: median of five calibrations."""
    return statistics.median(calibrate() for _ in range(5)) / CAL_REFERENCE


def _smoothed(rates: list[float], half_width: int = 4) -> list[float]:
    """Centered running median: one calibration is noisy, a drift is not."""
    return [
        statistics.median(rates[max(0, i - half_width): i + half_width + 1])
        for i in range(len(rates))
    ]


class PassResult:
    """Raw per-operation times plus the machine-speed factor of each one."""

    def __init__(self):
        # compact arrays, so that bookkeeping barely shows in peak_rss_mb
        self.latencies = array.array("d")  # the operation itself
        self.spans = array.array("d")      # loop wall time the operation took
        self.windows = array.array("l")    # calibration window of each operation
        self.rates: list[float] = []       # calibration rate at each window edge
        self.digests = bytearray()         # DIGEST_SIZE bytes per operation output
        self.failed = 0
        self.wall = 0.0
        self.gen_s = 0.0
        self.gate_s = 0.0
        self.errors: dict[str, int] = {}

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def factors(self) -> list[float]:
        """Per-operation scale to the reference machine speed."""
        rates = _smoothed(self.rates)
        edge = [(a + b) / 2 / CAL_REFERENCE for a, b in zip(rates, rates[1:])]
        return [edge[k] for k in self.windows]

    def normalized(self) -> tuple[list[float], float]:
        """(latencies, loop wall) scaled to the reference machine speed."""
        factors = self.factors()
        latencies = [t * f for t, f in zip(self.latencies, factors)]
        return latencies, sum(t * f for t, f in zip(self.spans, factors))


def run_pass(w, seconds: float, limit: int | None = None, gate: bool = True) -> PassResult:
    """Closed loop, one caller: run ops until ``seconds`` of loop wall time
    (or ``limit`` ops).  Input generation, gates and calibration run with the
    clock stopped: inputs and gates between chunks, a calibration every
    CAL_EVERY seconds of loop time."""
    clock = time.perf_counter
    res = PassResult()
    res.rates.append(calibrate())
    last_cal = clock()
    w.open()
    try:
        while res.wall < seconds and (limit is None or res.ops < limit):
            t = clock()
            chunk = [w.make_input() for _ in range(CHUNK)]
            res.gen_s += clock() - t

            outputs = []
            mark = clock()
            for inp in chunk:
                op_id = res.ops
                if limit is not None and op_id >= limit:
                    break
                if mark - last_cal >= CAL_EVERY:
                    res.rates.append(calibrate())
                    last_cal = mark = clock()
                if w.tracer is not None:
                    w.tracer.set_op(op_id)
                call = w.prepare(inp, op_id)
                t0 = clock()
                try:
                    out, err = call(), None
                except Exception as exc:  # a failed operation, counted below
                    out, err = None, exc
                t1 = clock()
                res.latencies.append(t1 - t0)
                res.spans.append(t1 - mark)
                res.windows.append(len(res.rates) - 1)
                res.wall += t1 - mark
                mark = t1
                outputs.append((inp, out, err))
                if res.wall >= seconds:
                    break

            t = clock()
            for inp, out, err in outputs:
                ok = err is None
                if ok:
                    fingerprint = w.fingerprint(inp, out)
                    if gate:
                        try:
                            ok = bool(w.check(inp, out))
                        except Exception as exc:  # a gate that raises fails
                            ok, err = False, exc
                if not ok:
                    res.failed += 1
                    name = type(err).__name__ if err is not None else "gate"
                    res.errors[name] = res.errors.get(name, 0) + 1
                    fingerprint = b"failed:" + name.encode()
                res.digests += hashlib.blake2b(fingerprint, digest_size=DIGEST_SIZE).digest()
            res.gate_s += clock() - t
    finally:
        w.close()
    res.rates.append(calibrate())
    return res


def _fingerprint(res: PassResult, ops: int) -> str:
    """Output fingerprint of the first ``ops`` operations of a pass."""
    return hashlib.sha256(res.digests[: ops * DIGEST_SIZE]).hexdigest()


def _quantile_ms(latencies: list[float], q: int) -> float:
    if len(latencies) == 1:
        return latencies[0] * 1000.0
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1000.0


def main(argv=None) -> int:
    bench = _load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    _pin_to_one_cpu()
    counter = WarningCounter()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = counter

        workloads = _import_nakex()
        cls = workloads.WORKLOADS[args.workload]
        warm_up(cls)
        setups = [time.perf_counter() - _PROCESS_T0]
        if args.setup_only:
            print(repr(setups[0]))
            return 0
        if args.trace:
            import spans

            _check_layer_names(bench, spans)
        # the cold set-up is repeated in fresh processes; each is scaled by
        # the machine speed measured just after it, or around it
        speeds = [_machine_speed()]
        scaled = [setups[0] * speeds[0]]
        for _ in range(SETUP_REPS - 1):
            setups.append(_cold_setup_seconds(args.workload))
            speeds.append(_machine_speed())
            scaled.append(setups[-1] * (speeds[-2] + speeds[-1]) / 2)
        setup_raw = statistics.median(setups)
        setup_scaled = statistics.median(scaled)

        _clear_caches(normal_form_only=True)
        timed = run_pass(cls(_timed_rng(cls.name, args.seed), False), args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = tracer = None
        if args.trace:
            _clear_caches(normal_form_only=True)
            tracer = spans.Tracer()
            replay = cls(_timed_rng(cls.name, args.seed), False)
            replay.tracer = tracer
            spans.install(tracer)
            try:
                traced = run_pass(replay, args.seconds, limit=timed.ops, gate=False)
            finally:
                tracer.uninstall()

    print("env " + json.dumps(_environment(args.seed, nproc), sort_keys=True))
    n = timed.ops
    fingerprint = _fingerprint(timed, n)
    correct = timed.failed == 0
    print(f"workload {args.workload} seed {args.seed} ops {n} failed {timed.failed} "
          f"fail_ratio {timed.failed / max(n, 1):.6f}")
    if timed.errors:
        print("failures by kind " + json.dumps(timed.errors, sort_keys=True))
    print(f"fingerprint {fingerprint}")
    print(f"setup: cold set-ups, process start to first timed operation: this process "
          f"{setups[0]:.4f} s, fresh processes " + ", ".join(f"{r:.4f}" for r in setups[1:]) + " s")
    print(f"loop: wall {timed.wall:.4f} s, input generation {timed.gen_s:.4f} s, "
          f"gates {timed.gate_s:.4f} s")
    print("warnings (counted, not shown): " + json.dumps(counter.counts, sort_keys=True))
    rates = sorted(timed.rates)
    print(f"machine speed: {len(rates)} calibrations, median {statistics.median(rates) / CAL_REFERENCE:.4f}, "
          f"range {rates[0] / CAL_REFERENCE:.4f}-{rates[-1] / CAL_REFERENCE:.4f} of the reference; "
          "times below are scaled to the reference speed (raw in brackets)")

    latencies, wall = timed.normalized()
    raw = {
        "setup_s": setup_raw,
        "ops_per_s": n / timed.wall,
        "op_p50_ms": _quantile_ms(timed.latencies, 50),
        "op_p90_ms": _quantile_ms(timed.latencies, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    end_to_end = {
        "setup_s": setup_scaled,
        "ops_per_s": n / wall,
        "op_p50_ms": _quantile_ms(latencies, 50),
        "op_p90_ms": _quantile_ms(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in end_to_end.items():
        note = f"  (n={n})" if name.startswith("op_") or name == "ops_per_s" else ""
        print(f"  {name:<12} {value:14.6f} {units.get(name, '')} [{raw[name]:.6f}]{note}")
    if n < MIN_P90_SAMPLES:
        print(f"  note: {n} operations, fewer than {MIN_P90_SAMPLES}: op_p90_ms has "
              "fewer than ten samples beyond it")

    if traced is None:
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    else:
        traced_fp = _fingerprint(traced, traced.ops)
        untraced_prefix_fp = _fingerprint(timed, traced.ops)
        same = traced_fp == untraced_prefix_fp and traced.failed == 0
        correct = correct and same
        base = sum(latencies[: traced.ops])
        try:
            layer = spans.layer_metrics(tracer, sessions=traced.ops)
        except ValueError as exc:
            _fail(str(exc))
        layer["trace.ops"] = traced.ops
        layer["trace.loop_s"] = traced.wall
        layer["trace.overhead_ratio"] = sum(traced.normalized()[0]) / base - 1.0 if base else 0.0
        nf_share = layer.get("braid.normal_form.self_s", 0.0) / traced.wall
        print(f"trace: {traced.ops} ops replayed, fingerprint {traced_fp} "
              f"({'matches' if same else 'DIFFERS FROM'} the untraced run's first "
              f"{traced.ops} ops), overhead {layer['trace.overhead_ratio']:.4f}, "
              f"normal_form self time {nf_share:.4f} of the traced loop")
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"trace: {len(tracer.spans)} spans written to "
              f"{os.path.relpath(path, ROOT)} ({tracer.dropped} past the cap not kept)")
        metrics = {
            m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]
        }
        for name, entry in metrics.items():
            print(f"  {name:<42} {entry['value']:16.6f} {entry['unit']}")

    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": timed.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
