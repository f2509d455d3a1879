"""Differential checks: run redundant computation paths against each other.

The library ships several pairs of independently implemented paths that
must agree exactly (or within quantified Monte-Carlo error).  Each
registered check executes one such pair on a fuzzed scenario and
reports structured :class:`~repro.verify.report.Mismatch` records:

- ``exact-vs-ilp`` — brute force, branch-and-bound and the Eq. 20-22
  MILP must find the same optimum rate, and every output must pass the
  independent feasibility certificate;
- ``analytic-vs-montecarlo`` — Thm 3.1's closed-form success
  probabilities against empirical frequencies from the streaming
  replay, with a 5-sigma binomial confidence bound;
- ``serial-vs-parallel`` — the ``n_jobs=1`` in-process path and the
  ``n_jobs=2`` process-pool path must be *bit-identical* (PR-1's
  contract);
- ``cached-vs-certificate`` — the cached interference matrix behind
  ``FadingRLS.interference_on`` against ``certify``'s from-coordinates
  recomputation, factor by factor;
- ``batched-vs-streaming`` — ``sample_fading_trials`` against the
  concatenation of ``iter_fading_trials`` chunks (the RNG stream-layout
  contract);
- ``with-params-cache-carry`` — a ``with_params`` copy that carries
  the cached ``F`` forward against a from-scratch instance with the
  same parameters;
- ``incremental-vs-scratch`` — the incremental engine's O(kN)-updated
  interference matrix against a from-scratch rebuild after a fuzzed
  delta sequence (bit-identical), plus feasibility and quality of its
  warm-start-repaired schedules;
- ``lazy-vs-dense`` — RLE, the Corollary 3.1 verdict and the
  ``distance_block`` / ``factor_block`` accessors on a bare instance
  (rows, columns and blocks computed on demand) against the same
  instance with its ``N x N`` matrices cached (slices): bit-identical.

Checks are callables ``(Scenario) -> list[Mismatch]`` registered in
:data:`DIFFERENTIAL_CHECKS`; the harness composes them with the
metamorphic relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.channel.sampling import iter_fading_trials, sample_fading_trials
from repro.core.certify import certify
from repro.core.exact import (
    branch_and_bound_schedule,
    brute_force_schedule,
    milp_schedule,
)
from repro.core.problem import FadingRLS
from repro.sim.montecarlo import simulate_schedule, simulate_trials
from repro.sim.resilient import resilient_map
from repro.utils.rng import stable_seed
from repro.verify.fuzz import Scenario, witness_set
from repro.verify.report import Mismatch

CheckFn = Callable[[Scenario], List[Mismatch]]

#: Reason codes emitted by the checks below.
CODE_OPTIMUM_MISMATCH = "optimum-mismatch"
CODE_INFEASIBLE_OUTPUT = "infeasible-output"
CODE_ANALYTIC_MC = "analytic-mc-divergence"
CODE_PARALLEL = "parallel-divergence"
CODE_CACHE = "cache-divergence"
CODE_FEASIBILITY = "feasibility-divergence"
CODE_STREAM = "stream-divergence"
CODE_CACHE_CARRY = "cache-carry-divergence"
CODE_INCREMENTAL_F = "incremental-f-divergence"
CODE_INCREMENTAL_INFEASIBLE = "incremental-infeasible-repair"
CODE_INCREMENTAL_QUALITY = "incremental-quality-divergence"
CODE_LAZY_SCHEDULE = "lazy-schedule-divergence"
CODE_LAZY_VERDICT = "lazy-verdict-divergence"
CODE_LAZY_BLOCK = "lazy-block-divergence"

#: Exact solvers are exponential; differential scenarios restrict to
#: this many links before enumerating.
EXACT_CHECK_LINKS = 10

DIFFERENTIAL_CHECKS: Dict[str, CheckFn] = {}


def register_differential(name: str):
    """Register a differential check under ``name`` (decorator)."""

    def _register(fn: CheckFn) -> CheckFn:
        if name in DIFFERENTIAL_CHECKS and DIFFERENTIAL_CHECKS[name] is not fn:
            raise ValueError(f"differential check {name!r} is already registered")
        DIFFERENTIAL_CHECKS[name] = fn
        return fn

    return _register


def _mismatch(name: str, scenario: Scenario, code: str, message: str, **details) -> Mismatch:
    return Mismatch(
        check=name, scenario=scenario.name, code=code, message=message, details=details
    )


@register_differential("exact-vs-ilp")
def check_exact_vs_ilp(scenario: Scenario) -> List[Mismatch]:
    """Three independent exact solvers must agree on the optimum."""
    p = scenario.problem
    if p.n_links > EXACT_CHECK_LINKS:
        p = p.restrict(np.arange(EXACT_CHECK_LINKS))
    solutions = {
        "brute_force": brute_force_schedule(p),
        "branch_and_bound": branch_and_bound_schedule(p),
        "milp": milp_schedule(p),
    }
    out: List[Mismatch] = []
    rates = {name: p.scheduled_rate(s.active) for name, s in solutions.items()}
    reference = rates["brute_force"]
    for name, rate in rates.items():
        if abs(rate - reference) > 1e-6:
            out.append(
                _mismatch(
                    "exact-vs-ilp",
                    scenario,
                    CODE_OPTIMUM_MISMATCH,
                    f"{name} optimum {rate:.9f} != brute force {reference:.9f}",
                    solver=name,
                    rate=rate,
                    reference=reference,
                )
            )
        cert = certify(p, solutions[name])
        if not cert.feasible:
            out.append(
                _mismatch(
                    "exact-vs-ilp",
                    scenario,
                    CODE_INFEASIBLE_OUTPUT,
                    f"{name} output failed the independent certificate "
                    f"(worst slack {cert.worst.slack:.3e})",
                    solver=name,
                    active=[int(i) for i in solutions[name].active],
                )
            )
    return out


@register_differential("analytic-vs-montecarlo")
def check_analytic_vs_montecarlo(scenario: Scenario) -> List[Mismatch]:
    """Thm 3.1 closed form vs empirical success frequencies (5-sigma)."""
    p = scenario.problem
    n_trials = 1500
    active = np.arange(min(p.n_links, 16))
    analytic = p.success_probabilities(active)[active]
    success = simulate_trials(
        p, active, n_trials, seed=stable_seed("analytic-mc", root=scenario.seed)
    )
    empirical = success.mean(axis=0)
    # 5-sigma binomial bound plus small-count slack: false positives are
    # ~6e-7 per link, negligible over any realistic budget.
    bound = 5.0 * np.sqrt(analytic * (1.0 - analytic) / n_trials) + 3.0 / n_trials
    deviation = np.abs(empirical - analytic)
    out: List[Mismatch] = []
    for k in np.flatnonzero(deviation > bound):
        link = int(active[k])
        out.append(
            _mismatch(
                "analytic-vs-montecarlo",
                scenario,
                CODE_ANALYTIC_MC,
                f"link {link}: empirical success {empirical[k]:.4f} vs "
                f"analytic {analytic[k]:.4f} exceeds the {bound[k]:.4f} "
                f"5-sigma bound over {n_trials} trials",
                link=link,
                empirical=float(empirical[k]),
                analytic=float(analytic[k]),
                bound=float(bound[k]),
                n_trials=n_trials,
            )
        )
    return out


@dataclass(frozen=True)
class _SimProbe:
    """Picklable Monte-Carlo probe for the serial-vs-parallel check."""

    problem: FadingRLS
    active: Tuple[int, ...]
    n_trials: int
    seed: int


def _run_probe(probe: _SimProbe) -> Tuple[float, float, np.ndarray]:
    """Worker function (module-level so it crosses process boundaries)."""
    result = simulate_schedule(
        probe.problem,
        np.array(probe.active, dtype=np.int64),
        n_trials=probe.n_trials,
        seed=probe.seed,
    )
    return result.mean_failed, result.mean_throughput, result.per_link_success


@register_differential("serial-vs-parallel")
def check_serial_vs_parallel(scenario: Scenario) -> List[Mismatch]:
    """``n_jobs=1`` and ``n_jobs=2`` must be bit-identical (PR-1 contract)."""
    p = scenario.problem
    active = witness_set(p, cap=12)
    if active.size == 0:
        return []
    probes = [
        _SimProbe(
            problem=p,
            active=tuple(int(i) for i in active),
            n_trials=64,
            seed=stable_seed("probe", rep, root=scenario.seed),
        )
        for rep in range(2)
    ]
    serial = resilient_map(_run_probe, probes, n_jobs=1)
    parallel = resilient_map(_run_probe, probes, n_jobs=2)
    out: List[Mismatch] = []
    for rep, ((s_fail, s_tput, s_link), (p_fail, p_tput, p_link)) in enumerate(
        zip(serial, parallel)
    ):
        if (
            s_fail != p_fail
            or s_tput != p_tput
            or not np.array_equal(s_link, p_link)
        ):
            out.append(
                _mismatch(
                    "serial-vs-parallel",
                    scenario,
                    CODE_PARALLEL,
                    f"probe {rep}: n_jobs=2 diverged from the serial path "
                    f"(failed {p_fail} vs {s_fail}, "
                    f"throughput {p_tput} vs {s_tput})",
                    rep=rep,
                    serial_failed=s_fail,
                    parallel_failed=p_fail,
                )
            )
    return out


@register_differential("cached-vs-certificate")
def check_cached_vs_certificate(scenario: Scenario) -> List[Mismatch]:
    """Cached-F interference sums vs the certificate's recomputation."""
    p = scenario.problem
    feasible = witness_set(p)
    probes = [feasible]
    outsiders = np.setdiff1d(np.arange(p.n_links), feasible)
    if outsiders.size:
        # A deliberately overloaded set exercises the violation paths.
        probes.append(np.sort(np.append(feasible, outsiders[: outsiders.size // 2 + 1])))
    out: List[Mismatch] = []
    for active in probes:
        if active.size == 0:
            continue
        cert = certify(p, active)
        cached = p.interference_on(active)
        for rb in cert.receivers:
            if not np.isclose(
                rb.total_interference, cached[rb.link], rtol=1e-9, atol=1e-12
            ):
                out.append(
                    _mismatch(
                        "cached-vs-certificate",
                        scenario,
                        CODE_CACHE,
                        f"receiver {rb.link}: certificate recomputed "
                        f"{rb.total_interference:.12f} but the cached matrix "
                        f"gives {cached[rb.link]:.12f}",
                        link=rb.link,
                        recomputed=rb.total_interference,
                        cached=float(cached[rb.link]),
                        active=[int(i) for i in active],
                    )
                )
        flag = p.is_feasible(active)
        boundary = cert.worst is not None and abs(cert.worst.slack) <= 1e-9
        if cert.feasible != flag and not boundary:
            out.append(
                _mismatch(
                    "cached-vs-certificate",
                    scenario,
                    CODE_FEASIBILITY,
                    f"certificate says feasible={cert.feasible} but "
                    f"is_feasible says {flag}",
                    certificate=cert.feasible,
                    cached=flag,
                    active=[int(i) for i in active],
                )
            )
    return out


@register_differential("batched-vs-streaming")
def check_batched_vs_streaming(scenario: Scenario) -> List[Mismatch]:
    """Chunked streaming must reproduce the one-shot draw bit-for-bit."""
    p = scenario.problem
    active = np.arange(min(p.n_links, 12))
    n_trials, chunk = 40, 7
    seed = stable_seed("stream", root=scenario.seed)
    batched = sample_fading_trials(
        p.distances(), active, p.alpha, n_trials, power=p.tx_powers(), seed=seed
    )
    streamed = np.concatenate(
        list(
            iter_fading_trials(
                p.distances(),
                active,
                p.alpha,
                n_trials,
                power=p.tx_powers(),
                seed=seed,
                chunk_trials=chunk,
            )
        )
    )
    if not np.array_equal(batched, streamed):
        delta = float(np.abs(batched - streamed).max())
        return [
            _mismatch(
                "batched-vs-streaming",
                scenario,
                CODE_STREAM,
                f"streamed chunks (chunk_trials={chunk}) are not bit-identical "
                f"to the batched draw (max |delta| = {delta:.3e})",
                chunk_trials=chunk,
                n_trials=n_trials,
                max_abs_delta=delta,
            )
        ]
    return []


def _fuzz_delta(links, rng: np.random.Generator) -> "LinkDelta":
    """One random churn step: rigid moves, maybe a removal/insertion.

    Moves translate whole links rigidly so lengths stay positive on
    arbitrary (including degenerate) fuzz geometry.
    """
    from repro.network.delta import LinkDelta
    from repro.network.links import LinkSet

    n = len(links)
    k = max(1, n // 4)
    moves = np.sort(rng.choice(n, size=min(k, n), replace=False))
    offsets = rng.uniform(-5.0, 5.0, size=(moves.size, 2))
    removes = None
    if n > 4 and rng.random() < 0.5:
        candidates = np.setdiff1d(np.arange(n), moves)
        if candidates.size:
            removes = candidates[[int(rng.integers(candidates.size))]]
    inserts = None
    if rng.random() < 0.5:
        sender = rng.uniform(0.0, 200.0, size=(1, 2))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        length = rng.uniform(5.0, 20.0)
        receiver = sender + length * np.array([[np.cos(theta), np.sin(theta)]])
        inserts = LinkSet(senders=sender, receivers=receiver, rates=np.ones(1))
    return LinkDelta(
        moves=moves,
        new_senders=links.senders[moves] + offsets,
        new_receivers=links.receivers[moves] + offsets,
        removes=removes,
        inserts=inserts,
    )


@register_differential("incremental-vs-scratch")
def check_incremental_vs_scratch(scenario: Scenario) -> List[Mismatch]:
    """Incremental O(kN) updates vs from-scratch rebuilds after churn.

    Drives an :class:`~repro.core.incremental.IncrementalScheduler`
    through a fuzzed delta sequence derived from the scenario seed and,
    after every step, asserts (1) its maintained interference matrix is
    *bit-identical* to a fresh :class:`FadingRLS` built on the replayed
    link set, (2) the warm-start-repaired schedule passes the fresh
    instance's feasibility check, and (3) the repaired rate does not
    fall below ``quality_bound`` of a from-scratch run of the same
    scheduler on the same geometry.
    """
    from repro.core.incremental import IncrementalScheduler
    from repro.core.rle import rle_schedule
    from repro.network.delta import apply_delta

    p = scenario.problem
    quality_bound = 0.8
    engine = IncrementalScheduler(
        p.links,
        scheduler=rle_schedule,
        alpha=p.alpha,
        gamma_th=p.gamma_th,
        eps=p.eps,
        noise=p.noise,
        quality_bound=quality_bound,
    )
    engine.schedule()
    rng = np.random.default_rng(stable_seed("incremental", root=scenario.seed))
    links = p.links
    out: List[Mismatch] = []
    for step in range(3):
        delta = _fuzz_delta(links, rng)
        links = apply_delta(links, delta)
        schedule = engine.step(delta)
        fresh = FadingRLS(
            links=links, alpha=p.alpha, gamma_th=p.gamma_th, eps=p.eps, noise=p.noise
        )
        if not np.array_equal(
            engine.problem.interference_matrix(), fresh.interference_matrix()
        ):
            delta_max = float(
                np.abs(
                    engine.problem.interference_matrix() - fresh.interference_matrix()
                ).max()
            )
            out.append(
                _mismatch(
                    "incremental-vs-scratch",
                    scenario,
                    CODE_INCREMENTAL_F,
                    f"step {step}: incrementally maintained F is not "
                    f"bit-identical to a fresh rebuild "
                    f"(max |delta| = {delta_max:.3e})",
                    step=step,
                    max_abs_delta=delta_max,
                )
            )
        if not fresh.is_feasible(schedule.active):
            out.append(
                _mismatch(
                    "incremental-vs-scratch",
                    scenario,
                    CODE_INCREMENTAL_INFEASIBLE,
                    f"step {step}: repaired schedule fails the fresh "
                    f"instance's feasibility check",
                    step=step,
                    active=[int(i) for i in schedule.active],
                )
            )
        scratch_rate = fresh.scheduled_rate(rle_schedule(fresh).active)
        repaired_rate = fresh.scheduled_rate(schedule.active)
        if repaired_rate < quality_bound * scratch_rate - 1e-9:
            out.append(
                _mismatch(
                    "incremental-vs-scratch",
                    scenario,
                    CODE_INCREMENTAL_QUALITY,
                    f"step {step}: repaired rate {repaired_rate:.6f} fell "
                    f"below {quality_bound} x from-scratch rate "
                    f"{scratch_rate:.6f}",
                    step=step,
                    repaired_rate=repaired_rate,
                    scratch_rate=scratch_rate,
                    quality_bound=quality_bound,
                )
            )
    return out


@register_differential("with-params-cache-carry")
def check_with_params_cache_carry(scenario: Scenario) -> List[Mismatch]:
    """A cache-carrying ``with_params`` copy vs a from-scratch instance."""
    p = scenario.problem
    p.interference_matrix()  # ensure there is a cache to carry
    new_eps = p.eps + (1.0 - p.eps) / 3.0
    carried = p.with_params(eps=new_eps)
    fresh = FadingRLS(
        links=p.links,
        alpha=p.alpha,
        gamma_th=p.gamma_th,
        eps=new_eps,
        noise=p.noise,
        power=p.power,
        powers=p.powers,
    )
    out: List[Mismatch] = []
    if not np.allclose(
        carried.interference_matrix(), fresh.interference_matrix(), rtol=1e-12, atol=0.0
    ):
        delta = float(
            np.abs(carried.interference_matrix() - fresh.interference_matrix()).max()
        )
        out.append(
            _mismatch(
                "with-params-cache-carry",
                scenario,
                CODE_CACHE_CARRY,
                f"carried F diverges from a fresh recomputation "
                f"(max |delta| = {delta:.3e})",
                max_abs_delta=delta,
                new_eps=new_eps,
            )
        )
    active = witness_set(fresh)
    if carried.is_feasible(active) != fresh.is_feasible(active):
        out.append(
            _mismatch(
                "with-params-cache-carry",
                scenario,
                CODE_CACHE_CARRY,
                "witness-set feasibility differs between the cache-carrying "
                "copy and a fresh instance",
                new_eps=new_eps,
                active=[int(i) for i in active],
            )
        )
    return out


@register_differential("lazy-vs-dense")
def check_lazy_vs_dense(scenario: Scenario) -> List[Mismatch]:
    """On-demand rows, columns and blocks vs slices of the cached matrices.

    Builds the scenario's instance twice: *lazy* stays bare, so RLE and
    the feasibility verdict compute only the cells they read; *dense*
    has :meth:`~FadingRLS.distances` and
    :meth:`~FadingRLS.interference_matrix` cached first, so the same
    calls slice the ``N x N`` arrays.  The RLE schedule with its full
    ``trace=True`` diagnostics, the verdicts on the RLE output and on
    the witness set, and ``distance_block`` / ``factor_block`` on a
    random block (repeated and same-link cells included) and on one
    link's column and row must be bit-identical, and the bare instance
    must still hold neither matrix afterwards.
    """
    from repro.core.rle import rle_schedule

    p = scenario.problem

    def instance() -> FadingRLS:
        return FadingRLS(
            links=p.links,
            alpha=p.alpha,
            gamma_th=p.gamma_th,
            eps=p.eps,
            noise=p.noise,
            power=p.power,
            powers=p.powers,
        )

    lazy, dense = instance(), instance()
    dense.distances()
    dense.interference_matrix()
    out: List[Mismatch] = []

    def mismatch(code: str, message: str, **details) -> None:
        out.append(_mismatch("lazy-vs-dense", scenario, code, message, **details))

    probes = {"witness": witness_set(dense)}
    if p.has_uniform_power:
        a = rle_schedule(lazy, strict_uniform=False, trace=True)
        b = rle_schedule(dense, strict_uniform=False, trace=True)
        if not np.array_equal(a.active, b.active) or a.diagnostics != b.diagnostics:
            mismatch(
                CODE_LAZY_SCHEDULE,
                "rle on the bare instance differs from rle on the cached "
                "matrices (schedule or trace diagnostics)",
                lazy=[int(i) for i in a.active],
                dense=[int(i) for i in b.active],
            )
        probes["rle"] = b.active
    for name, active in probes.items():
        flags = (lazy.is_feasible(active), dense.is_feasible(active))
        if flags[0] != flags[1]:
            mismatch(
                CODE_LAZY_VERDICT,
                f"is_feasible on the {name} set: lazy {flags[0]}, dense {flags[1]}",
                probe=name,
                active=[int(i) for i in active],
            )

    rng = np.random.default_rng(stable_seed("lazy-vs-dense", root=scenario.seed))
    n = p.n_links
    rows = rng.integers(0, n, size=min(n, 6))
    # Shared links put same-link cells in the block; draws may repeat.
    cols = np.concatenate([rng.integers(0, n, size=min(n, 6)), rows[:3]])
    link = int(rows[0])
    # (selection, the same cells of the dense matrix): a block, and the
    # column and row RLE reads for a pick.
    selections = {
        "block": ((rows, cols), np.ix_(rows, cols)),
        "column": ((None, link), (slice(None), link)),
        "row": ((link, None), (link, slice(None))),
    }
    accessors = {
        "distance_block": (lazy.distance_block, dense.distances()),
        "factor_block": (lazy.factor_block, dense.interference_matrix()),
    }
    for name, (accessor, matrix) in accessors.items():
        for shape, (selection, index) in selections.items():
            if not np.array_equal(accessor(*selection), matrix[index]):
                mismatch(
                    CODE_LAZY_BLOCK,
                    f"{name} computed on demand differs from the dense slice ({shape})",
                    accessor=name,
                    shape=shape,
                    rows=[int(i) for i in rows],
                    cols=[int(i) for i in cols],
                )
    for key in ("distances", "F"):
        if key in lazy._cache:
            mismatch(
                CODE_LAZY_BLOCK,
                f"the bare instance built its N x N {key!r} matrix",
                matrix=key,
            )
    return out
