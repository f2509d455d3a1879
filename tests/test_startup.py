"""Start-up: the CLI, the paper's schedulers, a figure point and the
service answer without importing SciPy.

SciPy serves only the two ILP solvers, ``milp_schedule`` and
``lp_upper_bound``, which import ``scipy.optimize`` when they are
called; ``zeta(alpha - 1)`` in Eqs. 37 and 59 is
:func:`repro.utils.zeta.riemann_zeta`.  Importing SciPy at start-up
cost every process hundreds of milliseconds and about 40 MB
(docs/PERFORMANCE.md, "Cold start"), so a fresh interpreter runs each
path and then lists the ``scipy`` modules it holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import asyncio, json, sys

import repro.cli
from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import failed_vs_links
from repro.network.topology import paper_topology
from repro.service.broker import ScheduleBroker
from repro.service.loadgen import build_topology_payload
from repro.service.server import ScheduleServer


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


problem = FadingRLS(links=paper_topology(8, seed=3))
sizes = {
    name: get_scheduler(name)(problem).size
    for name in ("rle", "ldp", "approx_logn", "approx_diversity")
}
sweep = failed_vs_links(ExperimentConfig(n_links_sweep=(6,), n_repetitions=1, n_trials=4))


async def serve():
    broker = ScheduleBroker()
    server = ScheduleServer(broker)
    try:
        body = json.dumps({"topology": build_topology_payload(problem)}).encode()
        status, payload = await server._dispatch("POST", "/v1/schedule", body)
    finally:
        await broker.close(drain=False)
    return status, payload["active"]


status, served = asyncio.run(serve())
before = scipy_modules()

from repro.core.exact import milp_schedule
from repro.core.relaxation import lp_upper_bound

milp = milp_schedule(problem)
bound = lp_upper_bound(problem)
print(json.dumps({
    "sizes": sizes,
    "points": len(sweep.x_values),
    "status": status,
    "served": served,
    "rle": get_scheduler("rle")(problem).active.tolist(),
    "scipy_before": before,
    "milp_optimum": milp.diagnostics["optimum"],
    "lp_bound": bound.upper_bound,
    "scipy_after": "scipy.optimize" in sys.modules,
}))
"""


def test_the_paper_paths_start_without_scipy():
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert all(size >= 1 for size in out["sizes"].values()), out["sizes"]
    assert out["points"] == 1
    assert out["status"] == 200 and out["served"] == out["rle"]
    assert out["scipy_before"] == []
    # The ILP solvers still answer, loading SciPy on demand; the optimum
    # is a schedule's rate, so it sits between RLE's and the LP bound.
    assert out["scipy_after"]
    assert len(out["rle"]) <= out["milp_optimum"] <= out["lp_bound"] + 1e-9
