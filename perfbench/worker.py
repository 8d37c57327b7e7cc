"""One child process of the benchmark: a single set-up, or the measured phase.

    python3 perfbench/worker.py setup|measure --root DIR --workload NAME --seed N
        --inputs DIR [--out DIR --seconds S] [--trace-out FILE]

`setup` makes the workload's inputs in --inputs and reports its own time from
process start, so it includes importing numpy and fpntrack. `measure` runs
one untimed warm-up op, then timed ops until their total reaches --seconds,
reads the process's peak RSS, and only then checks the outputs. With
--trace-out the layers are traced and the spans written there. The last line
of standard output is a JSON report for `run.py`.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=["setup", "measure"])
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--inputs", required=True, type=Path)
    p.add_argument("--out", type=Path)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace-out", type=Path)
    return p.parse_args(argv)


def import_fpntrack(root: Path):
    """Import fpntrack from the checkout's src/, never from an installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fpntrack.cli  # noqa: F401  (imports every layer)

    if Path(sys.modules["fpntrack"].__file__).resolve().parent.parent != src:
        raise SystemExit(f"fpntrack imported from {sys.modules['fpntrack'].__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_fpntrack(args.root)
    from spans import Tracer, summarize
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace_out else None
    if tracer:
        tracer.install()

    def run(root_name, fn, *fn_args):
        """Call fn, under a root span of that name when tracing."""
        return fn(*fn_args) if tracer is None else tracer.span(root_name, fn)(*fn_args)

    def summary(root_name):
        roots = {i for i, s in enumerate(tracer.spans) if s[0] == root_name}
        return summarize(tracer.spans, roots)

    if args.phase == "setup":
        args.inputs.mkdir(parents=True)
        run("bench.setup", workload.make_inputs, args.inputs, args.seed)
        report = {"setup_s": time.perf_counter() - START}
        if tracer:
            report["summary"] = summary("bench.setup")
            tracer.write(args.trace_out)
        print(json.dumps(report))
        return 0

    args.out.mkdir(parents=True)
    wl = workload(args.inputs, args.out, args.seed)
    t0 = time.perf_counter()
    run("bench.warmup", wl.op, 0)
    first_op_s = time.perf_counter() - t0
    op_s, ok, failed = [], [], 0
    i = 1
    while sum(op_s) < args.seconds:
        t0 = time.perf_counter()
        try:
            run("bench.op", wl.op, i)
            ok.append(i)
        except Exception:  # a failed op is counted and the run goes on
            traceback.print_exc()
            failed += 1
        op_s.append(time.perf_counter() - t0)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "op_s": op_s,
        "failed": failed,
        "frames_per_op": wl.frames_per_op,
        "first_op_s": first_op_s,
        "peak_rss_mb": peak_rss_mb,
        "correct": True,
    }
    try:
        wl.check([0] + ok)
    except Exception:  # any disagreement or unreadable output makes the run incorrect
        traceback.print_exc()
        report["correct"] = False
    if tracer:
        report["summary"] = summary("bench.op")
        tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
