"""Extended experiment A8: schedule robustness under log-normal shadowing.

The paper's certification is Rayleigh-only.  Replaying LDP/RLE/baseline
schedules through the composite Suzuki channel (shadowing x Rayleigh)
measures how much of the eps-contract survives a channel the algorithms
were *not* designed for.  Expectation: graceful degradation for the
resistant schedulers (shadowing hits signal and interference
symmetrically), continued heavy failures for the baselines.  Each
replay's seed derives from ``(alg, sigma)`` through ``stable_seed``, so
the table is the same in every process.
"""

from __future__ import annotations


from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.experiments.reporting import format_table
from repro.network.topology import paper_topology
from repro.sim.montecarlo import simulate_schedule
from repro.utils.rng import stable_seed

SIGMA_GRID = (0.0, 4.0, 8.0)
ALGORITHMS = ("rle", "ldp", "approx_diversity")


def _measure(n_links=300, seed=0, n_trials=20_000):
    p = FadingRLS(links=paper_topology(n_links, seed=seed))
    rows = []
    for alg in ALGORITHMS:
        schedule = get_scheduler(alg)(p)
        for sigma in SIGMA_GRID:
            probs = simulate_schedule(
                p,
                schedule,
                n_trials=n_trials,
                seed=stable_seed("a8-shadowing", alg, sigma),
                channel=f"shadowing:sigma_db={sigma}",
            ).per_link_success
            rows.append([alg, sigma, schedule.size, float(probs.mean()), float(probs.min())])
    return rows


def test_a8_shadowing_robustness(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["scheduler", "sigma_dB", "links", "mean success", "worst link success"], rows
        )
    )
    table = {(r[0], r[1]): r for r in rows}
    # Rayleigh baseline point: the eps-contract holds for RLE.
    assert table[("rle", 0.0)][3] >= 0.985
    # Graceful degradation: at 8 dB shadowing RLE's mean success stays high.
    assert table[("rle", 8.0)][3] >= 0.95
    # The susceptible baseline is bad at every sigma.
    for sigma in SIGMA_GRID:
        assert table[("approx_diversity", sigma)][3] < table[("rle", sigma)][3]
