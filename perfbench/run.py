"""Benchmark for nlgen: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is small_docs, wide_schema, long_doc, cli_batch or all.  The run
writes the workload's inputs from the seed under perfbench/_work/, times
it in fresh processes (worker.py), checks every output against references
the input generator wrote, and prints one line per metric followed by a
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 a separate traced run reports its per_layer list.  The full
result is also written to perfbench/_out/BENCH_<workload>[.trace].json,
and a traced run's spans to perfbench/_out/spans-<workload>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402  (after the path set-up above)

# Time a worker may take beyond the measured seconds (set-up processes,
# reference checks, traced --batch runs and probes); it keeps a 20-second
# run well inside three minutes.
WORKER_SLACK_S = 110


def _worker(mode: str, manifest_path: Path, seconds: float,
            timeout: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(manifest_path),
         str(seconds)], capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"worker {mode} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 spec: dict) -> dict:
    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = inputs.write_workload(name, seed, work, REPO,
                                         growth=traced)
        manifest.update(root=str(work), out=str(out))
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        budget = seconds + WORKER_SLACK_S
        if name == "cli_batch":
            result = _worker("cli-trace" if traced else "cli",
                             manifest_path, seconds, budget)
        elif traced:
            result = _worker("trace", manifest_path, seconds, budget)
        else:
            result = _worker("run", manifest_path, seconds, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    wanted = spec["per_layer" if traced else "end_to_end"]
    values = result["layers" if traced else "metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    summary = {"correct": result["failed"] == 0 and not result["problems"],
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    label = f"BENCH_{name}{'.trace' if traced else ''}.json"
    (out / label).write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, **summary,
         **{k: result.get(k) for k in ("raw", "speed", "samples", "growth")},
         "problems": result["problems"]}, indent=2) + "\n", encoding="utf-8")
    _print_table(name, summary, result)
    return summary


def _print_table(name: str, summary: dict, result: dict) -> None:
    print(f"# {name}")
    samples = result.get("samples") or {}
    for metric, v in summary["metrics"].items():
        note = ""
        if metric in ("doc_p50_ms", "doc_p90_ms") and samples:
            note = f"  (n={samples['doc']})"
        elif metric == "stage_docs_per_s" and samples:
            note = f"  (n={samples['stage']})"
        if "speed" in result:
            note += f"  (raw {result['raw'][metric]:.6g})"
        print(f"{metric:40s} {v['value']:14.6g} {v['unit']}{note}")
    if "speed" in result:
        print(f"{'machine speed':40s} {result['speed']:14.6g} x reference")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"{'ops_failed_ratio':40s} {failed / attempted:14.6g} ratio"
          f"  (base: {attempted} attempted)")
    for row in result.get("growth") or ():
        cells = "  ".join(f"{k}={v:.4g}" if isinstance(v, float)
                          else f"{k}={v}" for k, v in row.items())
        print(f"growth  {cells}")
    for problem in result["problems"][:10]:
        print(f"problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = REPO / "BENCHMARK.json"
    if not (REPO / "src" / "nlgen" / "__init__.py").is_file() \
            or not (REPO / "tests" / "golden").is_dir() \
            or not spec_path.is_file():
        print("run.py: no nlgen checkout here (src/nlgen, tests/golden and "
              "BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        try:
            summaries[name] = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), spec)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps(summaries[name]))
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{n}.{m}": v for n, s in summaries.items()
                             for m, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
