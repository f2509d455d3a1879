"""Start-up: the CLI, the paper's schedulers, a figure point and the
service answer without importing SciPy.

SciPy serves only the two ILP solvers, ``milp_schedule`` and
``lp_upper_bound``, which import ``scipy.optimize`` when they are
called; ``zeta(alpha - 1)`` in Eqs. 37 and 59 is
:func:`repro.utils.zeta.riemann_zeta`.  Importing SciPy at start-up
cost every process hundreds of milliseconds and about 40 MB
(docs/PERFORMANCE.md, "Cold start"), so a fresh interpreter runs each
path and then lists the ``scipy`` modules it holds.  Another serves one
fresh ``rle`` miss and checks that it did not import ``numpy.ma``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

#: One ``/v1/schedule`` request served over a socket: ``serve(problem)``
#: returns the status and the parsed body.
SERVE = r"""
import asyncio, json

from repro.service.broker import ScheduleBroker
from repro.service.loadgen import build_topology_payload
from repro.service.server import ScheduleServer


async def serve(problem):
    broker = ScheduleBroker()
    server = ScheduleServer(broker)
    host, port = await server.start()
    try:
        body = json.dumps({"topology": build_topology_payload(problem)}).encode()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            b"POST /v1/schedule HTTP/1.1\r\nConnection: close\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        response = await reader.read()
        writer.close()
    finally:
        await server.close()
        await broker.close(drain=False)
    head, _, payload = response.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(payload)
"""

CHILD = SERVE + r"""
import sys

import repro.cli
from repro.core.base import get_scheduler
from repro.core.problem import FadingRLS
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5 import failed_vs_links
from repro.network.topology import paper_topology


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


problem = FadingRLS(links=paper_topology(8, seed=3))
sizes = {
    name: get_scheduler(name)(problem).size
    for name in ("rle", "ldp", "approx_logn", "approx_diversity")
}
sweep = failed_vs_links(ExperimentConfig(n_links_sweep=(6,), n_repetitions=1, n_trials=4))
status, payload = asyncio.run(serve(problem))
served = payload["active"]
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


#: ``repro serve``'s imports, then one fresh 200-link ``rle`` miss,
#: which the broker computes on the event loop.
FIRST_MISS = SERVE + r"""
import sys

import repro.cli
from repro.core.problem import FadingRLS
from repro.network.topology import paper_topology

status, payload = asyncio.run(serve(FadingRLS(links=paper_topology(200, seed=3))))
print(json.dumps({
    "status": status,
    "tier": payload["tier"],
    "numpy_ma": "numpy.ma" in sys.modules,
}))
"""


def _child(code: str) -> dict:
    """The JSON line a fresh interpreter running ``code`` prints last."""
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_paper_paths_start_without_scipy():
    out = _child(CHILD)
    assert all(size >= 1 for size in out["sizes"].values()), out["sizes"]
    assert out["points"] == 1
    assert out["status"] == 200 and out["served"] == out["rle"]
    assert out["scipy_before"] == []
    # The ILP solvers still answer, loading SciPy on demand; the optimum
    # is a schedule's rate, so it sits between RLE's and the LP bound.
    assert out["scipy_after"]
    assert len(out["rle"]) <= out["milp_optimum"] <= out["lp_bound"] + 1e-9


def test_the_first_served_miss_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call (NumPy 2.x), and a
    # fresh server's first miss paid it on the event loop.
    out = _child(FIRST_MISS)
    assert (out["status"], out["tier"]) == (200, "miss")
    assert not out["numpy_ma"]
