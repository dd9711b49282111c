#!/usr/bin/env python3
"""Step-size sweep for the finite-difference identity residuals on S6(c).

Prints how the full-norm residuals of the curvature/nabla-J pairing identity
(id_1_1), the two trace-derivative identities closest to their gates (id_1_3,
id_1_4) and the curvature-vs-model deviation behave as the step h of the outer
derivative levels is halved, with and without Richardson extrapolation.  Both
innermost derivatives, dg inside the Christoffel symbols and dJ inside nabla J,
are complex steps at every h.  The table shows the second-order convergence of the
plain scheme and, with Richardson, where truncation and the rounding of the
outer levels cross over.  The deviation column compares with the round-sphere
tensor c * pi1, so only S6 charts are accepted.

    python scripts/fd_convergence.py [--chart S6(1)] [--seed 7] [--steps H ...]
"""

import argparse

from bochnerkit.charts import (
    ChartSpecError, FDConfig, geometry_at, make_chart, nk_identity_suite, parse_model_spec,
)
from bochnerkit.curvature import space_form_tensor
from bochnerkit.multilinear import invariant_norm


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chart", default="S6(1)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--steps", type=float, nargs="+",
                        default=[8e-3, 4e-3, 2e-3, 1e-3, 5e-4])
    args = parser.parse_args(argv)
    try:
        kind = parse_model_spec(args.chart).kind
    except ChartSpecError as exc:
        parser.error(str(exc))
    if kind != "S6":
        parser.error(f"--chart must be an S6(c) chart, got {args.chart!r}")

    chart = make_chart(args.chart)
    x = chart.sample_points(args.seed, 1)[0]
    print(f"chart {chart.label}, point radius {float((x @ x) ** 0.5):.3f}")
    print(f"{'h':>10} {'richardson':>10} {'id_1_1':>12} {'id_1_3':>12} {'id_1_4':>12} "
          f"{'curv rel':>12}")
    for richardson in (False, True):
        for h in args.steps:
            cfg = FDConfig(h=h, richardson=richardson)
            geo = geometry_at(chart, x, cfg)
            suite = nk_identity_suite(chart, geo)
            target = space_form_tensor(geo.point, chart.scale)
            rel = invariant_norm(geo.point, geo.R - target) / invariant_norm(geo.point, target)
            print(f"{h:>10.1e} {str(richardson):>10} {suite.id_1_1:>12.3e} "
                  f"{suite.id_1_3:>12.3e} {suite.id_1_4:>12.3e} {rel:>12.3e}")


if __name__ == "__main__":
    main()
