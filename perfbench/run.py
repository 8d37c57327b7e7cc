"""fpntrack benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload ablation|backbone|longterm --seed N
        --seconds S --trace 0|1

Run from the root of a checkout; fpntrack is imported from its src/. The
run makes the workload's inputs under .perfbench/work/ in child processes
(SETUP_REPS times, reporting the median as setup_s), then one more child runs
a warm-up op and timed ops for S seconds and checks every output against the
references in checks.py. Every child is waited for. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 1 the layers are traced, spans go to .perfbench/traces/, and
the metrics are the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ablation", "backbone", "longterm")
SETUP_REPS = 3
# One BLAS thread, so that the load is one thread of one process whatever the
# core count.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def child(phase: str, args, inputs: Path, extra=()) -> dict:
    """Run worker.py to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), phase, "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--inputs", str(inputs),
           *extra]
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{phase} child exited {proc.returncode}")
    return json.loads(lines[-1])


def per_op(summary: dict, n: int, name: str, field: int = 0) -> float:
    """A traced total (0: ms, 1: calls, 2: size) divided by n."""
    return summary["names"].get(name, [0.0, 0, 0.0])[field] / n


def layer_metrics(setup: dict, measure: dict) -> dict:
    n = len(measure["op_s"])
    s = measure["summary"]
    m = {f"{layer}.self_ms": (ms / n, "ms") for layer, ms in s["self_ms"].items()}
    for name in ("synth.render_frame", "synth.score_candidates", "templates.build_template",
                 "templates.sample_negatives", "templates.solve_ridge",
                 "container.read_container", "container.write_container",
                 "attention.similarity_pyramid", "tracker.step", "metrics.roc_curve",
                 "metrics.longterm_prf"):
        m[f"{name}.ms"] = (per_op(s, n, name), "ms")
    for name in ("synth.render_frame", "templates.build_template", "metrics.roc_curve"):
        m[f"{name}.calls"] = (per_op(s, n, name, 1), "count")
    m["container.read_container.mb"] = (per_op(s, n, "container.read_container", 2), "MB")
    m["container.read_jsonl.ms"] = (
        per_op(s, n, "container.read_tracks") + per_op(s, n, "container.read_groundtruth"), "ms")
    # set-up figures are per set-up: a traced run sets up once
    u = setup["summary"]
    m["setup.synth.render_frame.ms"] = (per_op(u, 1, "synth.render_frame"), "ms")
    m["setup.synth.render_frame.calls"] = (per_op(u, 1, "synth.render_frame", 1), "count")
    m["setup.container.write_container.ms"] = (per_op(u, 1, "container.write_container"), "ms")
    m["setup.tracker.step.ms"] = (per_op(u, 1, "tracker.step"), "ms")
    m["cold.first_op_ms"] = (measure["first_op_s"] * 1e3, "ms")
    m["traced.op_p50_ms"] = (statistics.median(measure["op_s"]) * 1e3, "ms")
    return m


def end_to_end_metrics(setup_s: list[float], measure: dict) -> dict:
    op_s = measure["op_s"]
    frames = measure["frames_per_op"] * (len(op_s) - measure["failed"])
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "frames_per_s": (frames / sum(op_s), "1/s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
        "peak_rss_mb": (measure["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fpntrack" / "__init__.py").is_file():
        print(f"error: no fpntrack sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}"

    def trace_to(phase: str) -> list[str]:
        if not args.trace:
            return []
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        return ["--trace-out", str(out_dir / "traces" / f"{tag}-{phase}.jsonl.gz")]

    try:
        work.mkdir(parents=True)
        setup_s = []
        for rep in range(1 if args.trace else SETUP_REPS):
            shutil.rmtree(work / f"inputs{rep - 1}", ignore_errors=True)
            inputs = work / f"inputs{rep}"
            setup = child("setup", args, inputs, trace_to("setup"))
            setup_s.append(setup["setup_s"])
        measure = child("measure", args, inputs,
                        ["--out", str(work / "out"), "--seconds", str(args.seconds),
                         *trace_to("measure")])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = layer_metrics(setup, measure) if args.trace else end_to_end_metrics(setup_s, measure)
    result = {
        "correct": measure["correct"],
        "attempted": len(measure["op_s"]),
        "failed": measure["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
