"""Print the README's reference table: one untraced and one traced run per workload.

    python3 perfbench/reference.py [--seed 1] [--seconds 30]

Runs perfbench/run.py six times in sequence (about six minutes at 30 s) and
prints a Markdown table of every metric per workload, then the tracing
overhead: traced.op_p50_ms against op_p50_ms of the untraced run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()
    results = {w: [run(w, args.seed, args.seconds, t) for t in (0, 1)] for w in WORKLOADS}
    names = [(k, v["unit"]) for k, v in results[WORKLOADS[0]][0]["metrics"].items()]
    names += [(k, v["unit"]) for k, v in results[WORKLOADS[0]][1]["metrics"].items()]
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---:|" * len(WORKLOADS))
    print("| ops attempted (untraced / traced) | count | " + " | ".join(
        f"{results[w][0]['attempted']} / {results[w][1]['attempted']}" for w in WORKLOADS) + " |")
    for name, unit in names:
        cells = []
        for w in WORKLOADS:
            value = {**results[w][0]["metrics"], **results[w][1]["metrics"]}[name]["value"]
            cells.append(f"{value:.4g}")
        print(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    print()
    for w in WORKLOADS:
        plain = results[w][0]["metrics"]["op_p50_ms"]["value"]
        traced = results[w][1]["metrics"]["traced.op_p50_ms"]["value"]
        print(f"- {w}: op_p50_ms {plain:.4g} untraced, {traced:.4g} traced "
              f"({(traced - plain) / plain:+.1%})")
    ok = all(r["correct"] and r["failed"] == 0 for pair in results.values() for r in pair)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
