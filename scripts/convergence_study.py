"""Empirical convergence of lattice prices to continuous-time closed forms.

The linear claim is exact at every depth (the increment field is constant),
so the interesting rows are the nonlinear claims, which show the expected
first-order decay in the step count.  Writes a CSV next to the table when
--out is given.
"""

import argparse
import math

import glattice as gl
from glattice.cli import ExperimentConfig, closed_form_reference

FIXTURES = [("entropic:1", "brownian"), ("abs:0.5", "brownian"),
            ("entropic:1", "abs_brownian"), ("zero", "abs_brownian")]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=float, default=1.0)
    parser.add_argument("--steps", type=int, nargs="+",
                        default=[64, 128, 256, 512, 1024, 2048])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    rows = []
    print(f"{'fixture':<28} " + " ".join(f"N={n:<8}" for n in args.steps) + " rate")
    for driver_spec, claim_spec in FIXTURES:
        label = f"{driver_spec} / {claim_spec}"
        config = ExperimentConfig.from_dict({"driver": driver_spec, "claim": claim_spec,
                                             "grid": {"horizon": args.horizon}})
        reference = closed_form_reference(config)
        driver = config.build_driver()
        errors = []
        for steps in args.steps:
            lattice = config.build_lattice(steps)
            value = float(gl.utility(driver, config.build_claim(lattice), 0)[0][0])
            errors.append(abs(value - reference))
        rate = float("nan")
        if errors[0] > 1e-13 and errors[-1] > 1e-13:
            rate = math.log(errors[0] / errors[-1]) / math.log(args.steps[-1] / args.steps[0])
        print(f"{label:<28} " + " ".join(f"{e:<10.2e}" for e in errors) + f" {rate:.2f}")
        rows.append((label, errors, rate))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("fixture," + ",".join(f"err_N{n}" for n in args.steps) + ",rate\n")
            for label, errors, rate in rows:
                handle.write(label.replace(",", ";") + ","
                             + ",".join(repr(e) for e in errors) + f",{rate!r}\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
