"""Temporal-smoothness ablation on jittery synthetic candidates.

Runs the tracker with and without the smoothing re-ranker over the same
seeded scenes and reports the average-overlap gain.
"""

import argparse
import json

from fpntrack.cli import positive_int
from fpntrack.scenarios import SuiteParams, smoothing_suite_ao


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sequences", type=positive_int, default=100)
    parser.add_argument("--base-seed", type=int, default=1000)
    parser.add_argument("--jitter", type=float, default=0.05)
    parser.add_argument("--template-mode", default="center",
                        choices=["center", "mean_pos", "mean_diff", "ridge"])
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    args = parser.parse_args()

    params = SuiteParams(jitter=args.jitter)
    with_smooth, without = smoothing_suite_ao(
        args.sequences, args.base_seed, params, args.template_mode
    )
    report = {
        "sequences": args.sequences,
        "template": args.template_mode,
        "mean_ao_smoothing": float(with_smooth.mean()),
        "mean_ao_plain": float(without.mean()),
        "gain": float(with_smooth.mean() - without.mean()),
    }
    if args.json:
        print(json.dumps(report, indent=2))
        return
    print(f"with smoothing    mean AO {report['mean_ao_smoothing']:.4f}")
    print(f"without smoothing mean AO {report['mean_ao_plain']:.4f}")
    print(f"gain              {report['gain']:+.4f}")


if __name__ == "__main__":
    main()
