"""Self-test of the benchmark at toy scale; takes well under a minute.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that

- the generator is deterministic: the same seed gives a byte-identical
  dump, another seed a different one;
- an untraced and a traced run pass the output gate (``correct`` true,
  nothing failed) and print exactly the declared end-to-end or per-layer
  metrics, each with its declared unit;
- the traced run records a span for every wrapped function the workload
  calls (``Workload.calls``);

and that ``run.py`` fails without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files. Exits non-zero
on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def generator_is_deterministic(wl) -> None:
    shas = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        out = WORK / f"gen-{wl.name}-{name}"
        proc = run([str(HERE / "gen.py"), "--graph", wl.graph, "--seed", str(seed), "--size", "toy",
                    "--task-cfg", wl.task_cfg, "--out", str(out)])
        check(proc.returncode == 0, f"{wl.name}: generator runs {proc.stderr.strip()[-200:]}".rstrip())
        shas.append(json.loads((out / "inputs.json").read_text())["dump_sha256"])
    same = (WORK / f"gen-{wl.name}-a" / "dump.nt").read_bytes() == (WORK / f"gen-{wl.name}-b" / "dump.nt").read_bytes()
    check(same and shas[0] == shas[1], f"{wl.name}: same seed gives a byte-identical dump")
    check(shas[0] != shas[2], f"{wl.name}: another seed gives another dump")


def run_is_complete(wl, bench, trace: int) -> None:
    proc = run([str(HERE / "run.py"), "--workload", wl.name, "--seed", "1", "--seconds", "0.2",
                "--trace", str(trace), "--size", "toy"])
    check(proc.returncode == 0, f"{wl.name} trace={trace}: exits 0 {proc.stderr.strip()[-300:]}".rstrip())
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{wl.name} trace={trace}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{wl.name} trace={trace}: output gate passes, nothing failed")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == declared, f"{wl.name} trace={trace}: every declared metric, with its unit")
    numbers = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    check(numbers, f"{wl.name} trace={trace}: every value is a number")
    if not trace:
        check(all(m["value"] > 0 for m in result["metrics"].values()), f"{wl.name}: end-to-end values > 0")
        return
    spans_file = ROOT / ".perfbench_out" / "results" / f"{wl.name}-seed1-trace1-toy.spans.jsonl"
    names = {json.loads(line)["name"] for line in spans_file.read_text().splitlines()}
    missing = sorted(set(wl.calls) - names)
    check(not missing, f"{wl.name}: a span for every wrapped function the workload calls {missing or ''}")


def fails_without_sources() -> None:
    bare = WORK / "bare"
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    bench = json.loads((bare / "BENCHMARK.json").read_text())
    proc = subprocess.run([*bench["command"], "--workload", bench["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=170)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the run exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "bare").mkdir(parents=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the workloads of workloads.py")
    check([m["name"] for m in bench["per_layer"]] == [m.name for m in spans.LAYER_METRICS] + ["trace.overhead_ratio", "host.probe_ms"],
          "BENCHMARK.json lists the per-layer metrics of spans.py")
    for entry in bench["workloads"]:
        wl = workloads.WORKLOADS[entry["name"]]
        check(entry["why"] == wl.why, f"{wl.name}: BENCHMARK.json gives the workload's reason")
        generator_is_deterministic(wl)
        run_is_complete(wl, bench, trace=0)
        run_is_complete(wl, bench, trace=1)
    fails_without_sources()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
