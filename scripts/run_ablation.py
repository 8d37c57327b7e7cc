"""Template ablation on the synthetic distractor suite.

Tracks the same seeded scenes with each template kind and reports the
mean average overlap per kind plus a bootstrap confidence bound on the
ridge-vs-center gap.
"""

import argparse
import json

from fpntrack.cli import positive_int
from fpntrack.scenarios import SuiteParams, bootstrap_lower_bound, distractor_suite_ao
from fpntrack.templates import TEMPLATE_KINDS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sequences", type=positive_int, default=200)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--overlap", type=float, default=0.95,
                        help="cosine between target and distractor identities")
    parser.add_argument("--noise-sigma", type=float, default=0.05)
    parser.add_argument("--kinds", nargs="+", default=list(TEMPLATE_KINDS),
                        choices=list(TEMPLATE_KINDS))
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    args = parser.parse_args()

    params = SuiteParams(overlap=args.overlap, noise_sigma=args.noise_sigma)
    results = distractor_suite_ao(args.kinds, args.sequences, args.base_seed, params)

    means = {k: float(v.mean()) for k, v in results.items()}
    report = {"sequences": args.sequences, "mean_ao": means}
    if "ridge" in results and "center" in results:
        diffs = results["ridge"] - results["center"]
        report["ridge_minus_center"] = {
            "mean": float(diffs.mean()),
            "bootstrap_lower_95": bootstrap_lower_bound(diffs),
        }

    if args.json:
        print(json.dumps(report, indent=2))
        return
    for kind in args.kinds:
        print(f"{kind:>10s}  mean AO {means[kind]:.4f}")
    if "ridge_minus_center" in report:
        gap = report["ridge_minus_center"]
        print(
            f"ridge - center: {gap['mean']:+.4f} "
            f"(95% bootstrap lower bound {gap['bootstrap_lower_95']:+.4f})"
        )


if __name__ == "__main__":
    main()
