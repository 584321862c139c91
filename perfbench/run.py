"""kgslice benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload nc-200k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; kgslice is imported from its
``src/`` directory, never from an installed copy, and the run fails with
exit code 2 when that directory is missing. A run:

1. generates the workload's dump and task config from ``--seed`` in a
   separate process (``gen.py``); generation is not timed;
2. runs the workload's pipeline (setup, then its kgslice commands) once
   as an unmeasured warm-up, then again and again until ``--seconds``
   have passed, with at least three measured iterations, each from a
   fresh setup; step times are rescaled to a fixed reference speed
   (``speed.py``);
3. reads peak RSS, then checks the outputs of the last iteration (the
   output gate in ``workloads.py``) and, for seeds listed in
   ``pinned.json``, that the output digest equals the pinned one;
4. prints a readable summary, then one JSON line: with ``--trace 0`` the
   end-to-end metrics (medians over iterations), with ``--trace 1`` the
   per-layer metrics of ``spans.py``, measured on iterations run with
   wrappers installed, interleaved with untraced ones that give
   ``trace.overhead_ratio``.

Everything the run writes goes under ``.perfbench_out/`` in the
checkout; the dump and bundle are deleted when the run ends and a record
of the run (inputs, per-iteration times, checks, digests) is kept in
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

END_TO_END_STAGES = ("setup_s", "extract_s", "downstream_s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="generator size; toy is for the self-test")
    return ap.parse_args(argv)


def import_kgslice():
    """Put this checkout's src/ first on the path; refuse any other kgslice."""
    src = ROOT / "src"
    if not (src / "kgslice" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kgslice sources under {src}")
    sys.path.insert(0, str(src))
    import kgslice

    if Path(kgslice.__file__).resolve().parent != (src / "kgslice").resolve():
        raise SystemExit(f"perfbench: kgslice imported from {kgslice.__file__}, not {src}")


def generate(wl, seed: int, size: str, inputs: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--graph", wl.graph, "--seed", str(seed),
         "--size", size, "--task-cfg", wl.task_cfg, "--out", str(inputs)],
        check=True, timeout=170,
    )
    return json.loads((inputs / "inputs.json").read_text())


def run_iteration(wl, inputs: Path, outdir: Path):
    """One pipeline pass from a fresh setup; returns (state, step times, raw times, counters).

    Each step is bracketed by a reference probe (``speed.py``); its time is
    its wall time rescaled to reference speed, and ``total_s`` is the sum of
    the step times, i.e. the pass from load to the last command without the
    probes. ``raw`` holds the wall times and the probe times.
    Every iteration exports into the same ``outdir``: the warm-up creates
    the bundle files and measured iterations overwrite them. Creating
    thousands of files on the host's file system took from 0.07 s to 1.5 s
    for the same files, whatever kgslice did, while overwriting them
    is steady.
    """
    state = {"dump": inputs / "dump.nt", "cfg": inputs / "task.cfg", "outdir": outdir}
    times, raw, probes = {}, {}, [speed.probe()]
    try:
        for detail, _, step in wl.steps:
            t = perf_counter()
            step(state)
            raw[detail] = perf_counter() - t
            probes.append(speed.probe())
            times[detail] = raw[detail] * speed.scale(probes[-2], probes[-1])
    finally:
        server = state.pop("server", None)
        if server is not None:
            server.close()
    raw["probe_s"] = statistics.median(probes)
    session = state.pop("session", None)
    counters = {}
    if session is not None:
        counters = {"http_requests": session.requests, "http_failed": session.failed,
                    "http_bytes": session.bytes_in, "http_page_requests": session.page_requests}
    for stage in END_TO_END_STAGES:
        times[stage] = sum(times[detail] for detail, st, _ in wl.steps if st == stage)
        raw[stage] = sum(raw[detail] for detail, st, _ in wl.steps if st == stage)
    times["total_s"] = sum(times[detail] for detail, _, _ in wl.steps)
    raw["total_s"] = sum(raw[detail] for detail, _, _ in wl.steps)
    return state, times, raw, counters


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.

    The reference probes then run on the CPU the measured work runs on;
    two busy vCPUs of the host slowed each other by up to 2x at random.
    kgslice is single-threaded, except that sparql-http's client and
    endpoint processes then share the CPU instead of overlapping.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args) -> int:
    import_kgslice()
    pin_to_one_cpu()
    import spans
    import workloads
    from kgslice import tasks

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}" + ("" if args.size == "full" else f"-{args.size}")
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        inputs = generate(wl, args.seed, args.size, workdir / "inputs")
        tracer = spans.Tracer() if args.trace else None
        iterations = []  # (iteration id, traced, times, raw times, counters)
        state = None
        gc.collect()
        os.sync()
        # Warm-up, not measured: creates the bundle files and warms caches.
        _, _, _, warmup = run_iteration(wl, workdir / "inputs", workdir / "out")
        start = perf_counter()
        while True:
            i = len(iterations)
            traced = tracer is not None and i % 3 != 0  # untraced, traced, traced, ...
            state = None
            gc.collect()
            os.sync()  # start from no pending writeback of the dump or of earlier bundles
            if traced:
                tracer.install(f"{wl.name}#{i}")
            try:
                state, times, raw, counters = run_iteration(wl, workdir / "inputs", workdir / "out")
            finally:
                if traced:
                    tracer.uninstall()
            iterations.append((f"{wl.name}#{i}", traced, times, raw, counters))
            n_traced = sum(1 for it in iterations if it[1])
            n_plain = len(iterations) - n_traced
            enough = n_plain >= 2 and n_traced >= 3 if tracer else n_plain >= 3
            if enough and perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        gate = workloads.Gate()
        wl.check(state, gate)
        kg = workloads.local_oracle(state, gate) if wl.name == "sparql-http" else state["kg"]
        task = tasks.task_from_config(kg, state["cfg_map"])
        inputs.update(
            triples=kg.triple_count(),
            vertices=kg.vertex_count(),
            targets=len(tasks.resolve_targets(kg, task)),
            max_walk_degree=workloads.max_walk_degree(kg),
        )
        digest = gate.digest()
        pinned = json.loads((HERE / "pinned.json").read_text()).get(wl.name, {})
        expected = pinned.get(str(args.seed)) if args.size == "full" else None
        if expected is not None:
            gate.check("output digest == pinned digest", digest == expected, expected)
        state = kg = None

        plain = [it for it in iterations if not it[1]]
        medians = {k: statistics.median(it[2][k] for it in plain) for k in plain[0][2]}
        raw_medians = {k: statistics.median(it[3][k] for it in plain) for k in plain[0][3]}
        attempted = (
            len(wl.steps) * (len(iterations) + 1)
            + sum(it[4].get("http_requests", 0) for it in iterations) + warmup.get("http_requests", 0)
            + len(gate.results)
        )
        failed = (sum(it[4].get("http_failed", 0) for it in iterations) + warmup.get("http_failed", 0)
                  + gate.failed)

        if tracer:
            traced_ids = [it[0] for it in iterations if it[1]]
            totals = {}
            for it in iterations:
                if it[1]:
                    for k, v in it[4].items():
                        totals[k] = totals.get(k, 0) + v
            overhead = statistics.median(it[2]["total_s"] for it in iterations if it[1]) / medians["total_s"]
            probe_ms = 1000 * statistics.median(it[3]["probe_s"] for it in iterations)
            metrics = spans.layer_metrics(tracer, traced_ids, totals, overhead, probe_ms)
            tracer.write(results / f"{tag}.spans.jsonl")
        else:
            metrics = {k: {"value": medians[k], "unit": "s"} for k in (*END_TO_END_STAGES, "total_s")}
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

        record = {
            "workload": wl.name, "seed": args.seed, "trace": args.trace, "size": args.size,
            "seconds": args.seconds, "python": platform.python_version(),
            "machine": f"{platform.machine()} x{os.cpu_count()}",
            "inputs": inputs, "peak_rss_mb": peak_rss_mb, "medians": medians, "raw_medians": raw_medians,
            "reference_s": speed.REFERENCE_S,
            "iterations": [{"id": i, "traced": t, "times": s, "raw": r, "counters": c}
                           for i, t, s, r, c in iterations],
            "checks": gate.results, "digests": gate.digests, "digest": digest,
            "pinned": "match" if expected == digest else ("mismatch" if expected else "unpinned"),
            "warmup_counters": warmup, "attempted": attempted, "failed": failed, "metrics": metrics,
        }
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_summary(record, wl)
    print(json.dumps({"correct": gate.failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_summary(record, wl) -> None:
    its = record["iterations"]
    plain = [it for it in its if not it["traced"]]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"iterations={len(its)} (untraced {len(plain)}); medians over untraced iterations, "
          f"in seconds at reference speed, then in wall seconds:")
    names = [d for d, _, _ in wl.steps] + [s for s in END_TO_END_STAGES[1:]] + ["total_s"]
    for name in dict.fromkeys(names):
        values = " ".join(f"{it['times'][name]:.3f}" for it in plain)
        print(f"  {name:<16} {record['medians'][name]:10.4f} s {record['raw_medians'][name]:8.3f} wall   [{values}]")
    print(f"  {'reference probe':<16} {1000 * record['raw_medians']['probe_s']:10.2f} ms "
          f"(reference speed: {1000 * record['reference_s']:.2f} ms)")
    print(f"  {'peak_rss_mb':<16} {record['peak_rss_mb']:10.1f} MB")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':<16} {rate:10.4f}     ({record['failed']} failed / {record['attempted']} attempted)")
    for name, ok, detail in record["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name} {detail if not ok else ''}".rstrip())
    inp = record["inputs"]
    print(f"  inputs sha256={inp['dump_sha256']} triples={inp['triples']} vertices={inp['vertices']} "
          f"targets={inp['targets']} max_walk_degree={inp['max_walk_degree']} "
          f"literal_share={inp['literal_share']:.4f}")
    print(f"  outputs digest={record['digest']} ({record['pinned']})")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            sys.stderr.write(exc.code + "\n")
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
