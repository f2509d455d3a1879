#!/usr/bin/env python
"""Capacity planning with the analysis toolkit.

A deployment question the library can answer end-to-end: *"on this
field, with this error allowance, how many concurrent links fit a slot
— and where is the leftover room?"*  The walk-through uses:

1. :func:`repro.analysis.regimes.summarize_regime` — what the channel
   parameters imply (budgets, square sizes, elimination radii);
2. :func:`repro.analysis.density.rle_density_ceiling` — the analytic
   per-area ceiling, against the empirically realised density;
3. :func:`repro.analysis.interference.admissible_fraction` — how much
   of the region could still host one more link after scheduling;
4. :func:`repro.analysis.interference.victim_hotspots` — which
   scheduled links sit closest to their budget;
5. :func:`repro.experiments.tradeoff.eps_tradeoff` — which error
   allowance maximises expected goodput.

Run:  python examples/capacity_planning.py [n_links] [seed]
"""

import sys

from repro import FadingRLS, rle_schedule
from repro.analysis.density import empirical_density, rle_density_ceiling
from repro.analysis.interference import admissible_fraction, victim_hotspots
from repro.analysis.regimes import summarize_regime
from repro.core.base import get_scheduler
from repro.experiments.tradeoff import best_eps, eps_tradeoff
from repro.geometry.region import Region
from repro.network.topology import paper_topology


def main(n_links: int = 300, seed: int = 0) -> None:
    region = Region.square(500.0)
    links = paper_topology(n_links, seed=seed)
    problem = FadingRLS(links=links, alpha=3.0, gamma_th=1.0, eps=0.01)

    regime = summarize_regime(problem.alpha, problem.gamma_th, problem.eps)
    print(
        f"Regime (alpha={problem.alpha}, eps={problem.eps}):\n"
        f"  interference budget gamma_eps = {regime.gamma_eps:.5f} "
        f"(~{regime.budget_vs_deterministic:.0f}x stricter than deterministic)\n"
        f"  LDP square factor beta = {regime.ldp_beta:.2f} "
        f"(rigorous: {regime.ldp_beta_rigorous:.2f}), "
        f"RLE radius c1 = {regime.rle_c1_by_c2[0.5]:.1f} link lengths\n"
    )

    schedule = rle_schedule(problem)
    realised = empirical_density(problem, schedule, region.area)
    # The packing ceiling depends on link length; RLE favours short
    # links, so the binding ceiling is the one at the *shortest*
    # scheduled length (ceilings shrink as length grows).
    shortest = float(links.lengths[schedule.active].min())
    ceiling = rle_density_ceiling(
        problem.alpha, problem.gamma_th, problem.gamma_eps, shortest
    )
    print(
        f"RLE scheduled {schedule.size}/{n_links} links: "
        f"{realised * 1e4:.2f} links per 100x100 area "
        f"(packing ceiling at the shortest scheduled length "
        f"{shortest:.1f}: {ceiling * 1e4:.2f})"
    )

    room = admissible_fraction(problem, schedule, region, probe_length=10.0, resolution=40)
    print(f"Leftover room: a fresh 10-unit link would fit at {100 * room:.0f}% of the region")

    print("\nMost budget-constrained scheduled links (link, remaining slack):")
    for link, slack in victim_hotspots(problem, schedule, top_k=3):
        print(f"  link {link}: slack {slack:.5f} of {problem.gamma_eps:.5f}")

    points = eps_tradeoff(
        {"rle": get_scheduler("rle")},
        eps_values=(0.005, 0.01, 0.05, 0.1),
        n_links=n_links,
        n_repetitions=2,
        n_trials=100,
    )
    print(f"\nEps sweep: goodput-best eps = {best_eps(points, 'rle').eps}")
    for point in points:
        print(
            f"  eps={point.eps:<6} scheduled={point.mean_scheduled:.1f} "
            f"goodput={point.mean_expected_goodput:.2f}"
        )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    s = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    main(n, s)
