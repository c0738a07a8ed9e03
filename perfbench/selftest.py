"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

For every workload it runs ``perfbench/run.py`` for one second untraced and
traced, and checks that:

- the run exits 0 with a correct result and no failed operation;
- the result names every end-to-end metric (untraced) or per-layer metric
  (traced) of BENCHMARK.json, with its unit, and nothing else;
- the traced replay gave the same fingerprint as the untraced run;
- the trace shows the split the workloads were chosen for.

Finally it checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"
SEED = "3"


def _run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _check_metrics(problems, label, result, expected):
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append(f"{label}: metric names differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        entry = got.get(name)
        if entry is not None and (entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float))):
            problems.append(f"{label}: {name} is {entry}, expected a number in {unit}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems: list[str] = []
    layers = {}

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = _run(ROOT, workload, trace)
            result = _result(proc)
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: result {result['correct']}, "
                                f"{result['failed']} of {result['attempted']} failed")
            _check_metrics(problems, label, result, per_layer if trace else end_to_end)
            if trace:
                if "(matches the untraced run's" not in proc.stdout:
                    problems.append(f"{label}: traced fingerprint differs from the untraced one")
                layers[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{label}: {result['attempted']} ops, correct={result['correct']}")

    def value(workload, name):
        return layers.get(workload, {}).get(name, 0)

    if "kex_finite" in layers and value("kex_finite", "braid.normal_form.calls") != 0:
        problems.append("kex_finite calls braid.normal_form")
    if "kex_braid" in layers:
        share = value("kex_braid", "braid.normal_form.self_s") / value("kex_braid", "trace.loop_s")
        if share < 0.9:
            problems.append(f"normal_form self time is {share:.3f} of the kex_braid loop, under 0.9")
        if value("kex_braid", "braid.canonical_word.calls") != 0:
            problems.append("kex_braid builds canonical words")
    if "session_loopback" in layers and value("session_loopback", "braid.canonical_word.calls") <= 0:
        problems.append("session_loopback builds no canonical word")
    attack_calls = [n for n in per_layer if n.startswith("attacks.") and n.endswith(".calls")]
    for workload in layers:
        calls = sum(value(workload, n) for n in attack_calls)
        if (calls > 0) != (workload == "laws_attacks"):
            problems.append(f"{workload}: attacks calls = {calls}")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, bench["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/ the benchmark exited {proc.returncode} "
                        f"and printed {proc.stdout.strip()[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
