"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``generate``
    Produce a random workload and save it (CSV or JSON by extension).
``schedule``
    Run a scheduler on a workload file (or a fresh random one), verify
    feasibility, optionally Monte-Carlo simulate, print or save JSON.
``figures`` / ``fig5`` / ``fig6``
    Regenerate the paper's evaluation panels as tables (and JSON);
    ``fig5``/``fig6`` are shortcuts for the two panels of each figure.
``power-sweep``
    Run every registered scheduler over a channel-law x power-policy
    grid (see ``docs/CHANNELS.md``).
``list``
    Show the registered schedulers.
``verify``
    Run the differential + metamorphic verification oracle over fuzzed
    adversarial scenarios (exit status 1 on any mismatch).
``mobility``
    Run the mobility study (schedule quality/stability under movement),
    from scratch per step or with ``--incremental`` warm-start repair.
``trace``
    Inspect observability traces (``trace summarize out.jsonl``).

Global observability flags (before the command name):

- ``--trace PATH`` enables the :mod:`repro.obs` layer and writes the
  run's span tree + metric snapshot as ``repro.trace.v1`` JSONL;
- ``--metrics`` enables the layer and prints the metric snapshot as a
  table on exit;
- ``--profile`` wraps the command in cProfile and prints the top
  cumulative entries (independent of the obs switch).

Channel flags (``schedule``/``figures``/``fig5``/``fig6``/``report``):
``--channel SPEC`` selects the Monte-Carlo replay's fading law
(``rayleigh`` | ``nakagami:m=...`` | ``shadowing:sigma_db=...`` |
``deterministic``) and ``--power-policy`` a transmit-power policy;
schedules stay certified under the paper's Rayleigh + uniform-power
closed form (``docs/CHANNELS.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import obs
from repro.core.base import SchedulerError, get_scheduler, list_schedulers
from repro.core.problem import FadingRLS
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.io.linksets import (
    linkset_from_csv,
    linkset_from_json,
    linkset_to_csv,
    linkset_to_json,
)
from repro.io.results import schedule_to_dict, sweep_to_dict, write_json
from repro.network.links import LinkSet
from repro.network.topology import TOPOLOGIES, make_topology

PANELS = ("fig5a", "fig5b", "fig6a", "fig6b")

#: Largest ``repro traffic --rate`` (packets per link per slot).  A link
#: sends at most one packet per slot, so any rate above 1 only overloads
#: the queues; far larger ones overflow the arrival samplers.
MAX_RATE = 1e6


def _load_links(path: str) -> LinkSet:
    p = Path(path)
    if p.suffix == ".json":
        return linkset_from_json(p)
    if p.suffix == ".csv":
        return linkset_from_csv(p)
    raise SystemExit(f"unsupported link file extension {p.suffix!r} (use .csv or .json)")


def _save_links(links: LinkSet, path: str) -> None:
    p = Path(path)
    if p.suffix == ".json":
        linkset_to_json(links, p)
    elif p.suffix == ".csv":
        linkset_to_csv(links, p)
    else:
        raise SystemExit(f"unsupported link file extension {p.suffix!r} (use .csv or .json)")


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: write a random workload file."""
    try:
        links = make_topology(args.topology, args.n_links, args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _save_links(links, args.output)
    print(f"wrote {len(links)} links ({args.topology}) to {args.output}")
    return 0


def _n_jobs(args: argparse.Namespace) -> int | None:
    """``--jobs`` validated (None = keep config default)."""
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 0:
        raise SystemExit(f"--jobs must be >= 0 (0 = all CPUs), got {jobs}")
    return jobs


def _channel(args: argparse.Namespace) -> str | None:
    """``--channel`` validated/canonicalised (None = keep config default)."""
    spec = getattr(args, "channel", None)
    if spec is None:
        return None
    from repro.channel.laws import get_channel_law

    try:
        return get_channel_law(spec).spec
    except ValueError as exc:
        raise SystemExit(f"--channel: {exc}")


def _open_cache(capacity: int, directory: str | None):
    """A ``ScheduleCache``, or a one-line exit for a bad capacity or directory."""
    from repro.cache.store import ScheduleCache

    try:
        return ScheduleCache(capacity=capacity, directory=directory)
    except ValueError as exc:
        raise SystemExit(str(exc))
    except OSError as exc:  # e.g. a regular file in the way: mkdir's FileExistsError
        reason = "not a directory" if isinstance(exc, FileExistsError) else exc.strerror
        raise SystemExit(f"cannot use {directory} as a cache directory: {reason or exc}")


def _power_policy(args: argparse.Namespace) -> str | None:
    """``--power-policy`` (choices are argparse-enforced)."""
    return getattr(args, "power_policy", None)


def _resilience(args: argparse.Namespace) -> dict:
    """Validated resilience knobs (``--unit-timeout``/``--max-retries``/
    ``--resume``) as ``with_resilience`` keyword arguments."""
    timeout = getattr(args, "unit_timeout", None)
    retries = getattr(args, "max_retries", None)
    resume = getattr(args, "resume", None)
    if timeout is not None and timeout <= 0:
        raise SystemExit(f"--unit-timeout must be positive seconds, got {timeout}")
    if retries is not None and retries < 0:
        raise SystemExit(f"--max-retries must be >= 0, got {retries}")
    return {"unit_timeout": timeout, "max_retries": retries, "resume_dir": resume}


def cmd_schedule(args: argparse.Namespace) -> int:
    """``repro schedule``: run a scheduler, verify, optionally simulate."""
    if args.trials < 0:
        raise SystemExit(f"--trials must be >= 0 (0 = skip), got {args.trials}")
    if args.input:
        links = _load_links(args.input)
    else:
        try:
            links = make_topology(args.topology, args.n_links, args.seed)
        except ValueError as exc:
            raise SystemExit(str(exc))
    try:
        problem = FadingRLS(
            links=links,
            alpha=args.alpha,
            gamma_th=args.gamma_th,
            eps=args.eps,
            noise=args.noise,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    from repro.core.powercontrol import run_scheduler_with_power

    scheduler = get_scheduler(args.algorithm)
    kwargs = {"seed": args.seed} if args.algorithm in ("dls", "random", "protocol_mis") else {}
    channel = _channel(args)
    policy = _power_policy(args) or "uniform"
    with span("scheduler.run", algorithm=args.algorithm):
        try:
            schedule, powered = run_scheduler_with_power(
                problem, scheduler, policy, kwargs
            )
        except (ValueError, SchedulerError) as exc:
            # A flag value outside the scheduler's domain, e.g. --alpha 2
            # for RLE's constants.
            raise SystemExit(f"{args.algorithm}: {exc}")
    obs_metrics.inc("scheduler.links_admitted", schedule.size)

    result = None
    if args.trials > 0:
        from repro.sim.montecarlo import simulate_schedule

        result = simulate_schedule(
            powered,
            schedule,
            n_trials=args.trials,
            seed=args.seed,
            channel=channel,
        )

    payload = schedule_to_dict(schedule, powered, result)
    if channel is not None or policy != "uniform":
        payload["channel"] = channel or "rayleigh"
        payload["power_policy"] = policy
    if args.output:
        write_json(payload, args.output)
        print(f"wrote result to {args.output}")
    print(
        f"{schedule.algorithm}: {schedule.size}/{len(links)} links scheduled, "
        f"feasible={payload['feasible']}, "
        f"expected throughput={payload['expected_throughput']:.3f}"
    )
    if result is not None:
        print(
            f"simulated {result.n_trials} trials: "
            f"failed/trial={result.mean_failed:.3f}, "
            f"throughput={result.mean_throughput:.3f}"
        )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: regenerate the paper's evaluation panels."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig5 import failed_vs_alpha, failed_vs_links
    from repro.experiments.fig6 import throughput_vs_alpha, throughput_vs_links
    from repro.experiments.reporting import format_series

    cfg = ExperimentConfig() if args.full else ExperimentConfig().small()
    cfg = cfg.with_execution(n_jobs=_n_jobs(args))
    cfg = cfg.with_resilience(**_resilience(args))
    cfg = cfg.with_channel(channel=_channel(args), power_policy=_power_policy(args))
    drivers = {
        "fig5a": (failed_vs_links, "mean_failed", "Fig. 5(a): failed transmissions vs #links"),
        "fig5b": (failed_vs_alpha, "mean_failed", "Fig. 5(b): failed transmissions vs alpha"),
        "fig6a": (throughput_vs_links, "mean_throughput", "Fig. 6(a): throughput vs #links"),
        "fig6b": (throughput_vs_alpha, "mean_throughput", "Fig. 6(b): throughput vs alpha"),
    }
    # ``repro fig5`` / ``repro fig6`` preselect their two panels; the
    # general ``figures`` command goes through ``--panel``.
    group = getattr(args, "panel_group", None)
    panels = group or (PANELS if args.panel == "all" else (args.panel,))
    if cfg.channel != "rayleigh" or cfg.power_policy != "uniform":
        print(f"channel={cfg.channel} power_policy={cfg.power_policy}\n")
    collected = {}
    for panel in panels:
        driver, metric, title = drivers[panel]
        sweep = driver(cfg)
        collected[panel] = sweep_to_dict(sweep)
        print(format_series(sweep, metric, title=title))
        print()
    if args.output:
        write_json(collected, args.output)
        print(f"wrote series to {args.output}")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    """``repro list``: print the registered scheduler names."""
    for name in list_schedulers():
        print(name)
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    """``repro constants``: print the paper's derived constants."""
    from repro.analysis.regimes import constants_table

    print(
        constants_table(
            alphas=tuple(args.alpha), gamma_th=args.gamma_th, eps=args.eps
        )
    )
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    """``repro traffic``: run a declarative workload scenario."""
    from repro.workload.generators import arrivals_from_spec
    from repro.workload.scenario import WorkloadScenario, run_scenario

    if args.config:
        try:
            scenario = WorkloadScenario.from_json(args.config)
        except (OSError, ValueError, TypeError) as exc:
            raise SystemExit(f"bad scenario config {args.config!r}: {exc}")
    else:
        if not 0.0 <= args.rate <= MAX_RATE:  # also catches NaN
            raise SystemExit(f"--rate must be in [0, {MAX_RATE:g}], got {args.rate!r}")
        base = arrivals_from_spec({"family": args.arrival})
        if base.mean_rate() <= 0:
            raise SystemExit(f"arrival family {args.arrival!r} has zero base rate")
        try:
            scenario = WorkloadScenario(
                name=f"{args.topology}-{args.n_links}-{args.arrival}",
                topology=args.topology,
                n_links=args.n_links,
                topology_seed=args.seed,
                alpha=args.alpha,
                eps=args.eps,
                noise=args.noise,
                arrivals=base.scaled(args.rate / base.mean_rate()),
                scheduler=args.algorithm,
                policy=args.policy,
                n_slots=args.slots,
                seed=args.seed,
                max_queue=args.max_queue,
                stability=None if args.no_stability else {},
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
    cache = None
    if args.cache:
        if scenario.policy != "backlogged":
            raise SystemExit(
                f"--cache requires the 'backlogged' policy, got {scenario.policy!r}"
            )
        cache = _open_cache(
            args.cache_capacity, None if args.cache == "memory" else args.cache
        )
    payload = run_scenario(scenario, n_jobs=_n_jobs(args) or 1, cache=cache)
    stats = payload["stats"]
    print(
        f"{scenario.name}: {scenario.scheduler}/{scenario.policy} over "
        f"{stats['n_slots']} slots, {stats['n_links']} links\n"
        f"  arrivals {stats['arrived']}, served {stats['served']} "
        f"({100 * stats['delivery_ratio']:.1f}%), dropped {stats['dropped']}, "
        f"failed attempts {stats['failed']}\n"
        f"  mean delay {stats['mean_delay'] if stats['mean_delay'] is None else round(stats['mean_delay'], 2)} slots "
        f"(p95 {stats['p95_delay'] if stats['p95_delay'] is None else round(stats['p95_delay'], 1)}), "
        f"mean backlog {stats['mean_backlog']:.1f}, "
        f"final backlog {stats['final_backlog']}, "
        f"drift {stats['drift']:+.4f} pkts/slot/link"
    )
    estimate = payload["stability"]
    if estimate is not None:
        bound = "bracketed" if estimate["bracketed"] else "one-sided bound"
        print(
            f"  stability region: lambda* ~ {estimate['lam_star']:.4f} "
            f"pkts/link/slot (x{estimate['factor_star']:.2f} offered load, "
            f"{bound}, {estimate['n_probes']} probes)"
        )
    cache_stats = payload.get("cache")
    if cache_stats is not None:
        print(
            f"  cache [{cache_stats['policy']}]: "
            f"{cache_stats['exact_hits']} exact hits, "
            f"{cache_stats['misses']} misses "
            f"({100 * cache_stats['hit_rate']:.1f}% hit rate), "
            f"{cache_stats['evictions']} evictions, "
            f"{cache_stats['entries']}/{cache_stats['capacity']} entries"
        )
    if args.output:
        write_json(payload, args.output)
        print(f"wrote traffic payload to {args.output}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """``repro verify``: run the differential + metamorphic oracle."""
    from repro.verify import all_checks, run_verification

    if args.list_checks:
        for name in sorted(all_checks()):
            print(name)
        return 0
    report = run_verification(
        budget=args.budget,
        seed=args.seed,
        checks=args.check or None,
        time_budget=args.time_budget,
    )
    print(report.summary())
    if args.output:
        write_json(report.to_dict(), args.output)
        print(f"wrote verification report to {args.output}")
    return 0 if report.passed else 1


def cmd_mobility(args: argparse.Namespace) -> int:
    """``repro mobility``: schedule quality/stability under movement."""
    from repro.experiments.mobility_study import mobility_sweep

    if args.n_links < 0:
        raise SystemExit(f"--n-links must be >= 0, got {args.n_links}")
    if args.steps < 1:
        raise SystemExit(f"--steps must be >= 1, got {args.steps}")
    if args.reps < 1:
        raise SystemExit(f"--reps must be >= 1, got {args.reps}")
    if args.move_threshold < 0:
        raise SystemExit(f"--move-threshold must be >= 0, got {args.move_threshold}")
    if not 0.0 < args.quality_bound <= 1.0:
        raise SystemExit(f"--quality-bound must be in (0, 1], got {args.quality_bound}")
    schedulers = {name: name for name in (args.algorithm or ["ldp", "rle"])}
    points = mobility_sweep(
        schedulers,
        speeds=tuple(args.speed),
        n_links=args.n_links,
        n_steps=args.steps,
        n_repetitions=args.reps,
        alpha=args.alpha,
        root_seed=args.seed,
        incremental=args.incremental,
        move_threshold=args.move_threshold,
        quality_bound=args.quality_bound,
    )
    mode = "incremental" if args.incremental else "from-scratch"
    print(f"mobility study ({mode}, {args.n_links} links, {args.steps} steps):")
    header = (
        f"{'speed':>8} {'algorithm':<18} {'throughput':>11} "
        f"{'churn':>7} {'max':>6} {'feas':>5} {'fallback':>9}"
    )
    print(header)
    for p in points:
        print(
            f"{p.speed:>8.1f} {p.algorithm:<18} {p.mean_throughput:>11.3f} "
            f"{p.mean_churn:>7.3f} {p.max_churn:>6.3f} "
            f"{'yes' if p.all_feasible else 'NO':>5} {p.fallback_rate:>9.3f}"
        )
    if args.output:
        payload = {
            "mode": mode,
            "points": [
                {
                    "speed": p.speed,
                    "algorithm": p.algorithm,
                    "mean_throughput": p.mean_throughput,
                    "mean_churn": p.mean_churn,
                    "max_churn": p.max_churn,
                    "all_feasible": p.all_feasible,
                    "incremental": p.incremental,
                    "fallback_rate": p.fallback_rate,
                }
                for p in points
            ],
        }
        write_json(payload, args.output)
        print(f"wrote mobility series to {args.output}")
    return 0 if all(p.all_feasible for p in points) else 1


def cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: render the full markdown evaluation report."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.report import generate_report

    cfg = ExperimentConfig() if args.full else ExperimentConfig().small()
    cfg = cfg.with_execution(n_jobs=_n_jobs(args))
    cfg = cfg.with_resilience(**_resilience(args))
    cfg = cfg.with_channel(channel=_channel(args), power_policy=_power_policy(args))
    text = generate_report(cfg)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote report to {args.output}")
    else:
        print(text)
    return 0


def cmd_power_sweep(args: argparse.Namespace) -> int:
    """``repro power-sweep``: scheduler registry over channel x power grid."""
    from repro.core.powercontrol import POWER_POLICIES
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.power_sweep import (
        DEFAULT_CHANNELS,
        format_power_sweep,
        power_sweep,
    )

    cfg = ExperimentConfig().small().with_execution(n_jobs=_n_jobs(args))
    channels = tuple(args.channel) if args.channel else DEFAULT_CHANNELS
    policies = tuple(args.policy) if args.policy else POWER_POLICIES
    from repro.channel.laws import get_channel_law

    try:
        for spec in channels:
            get_channel_law(spec)
    except ValueError as exc:
        raise SystemExit(f"--channel: {exc}")
    try:
        cells = power_sweep(
            cfg,
            channels=channels,
            policies=policies,
            schedulers=args.algorithm or None,
            n_links=args.n_links,
            n_repetitions=args.reps,
            n_trials=args.trials,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc))
    print(format_power_sweep(cells))
    if args.output:
        payload = {
            "grid": [
                {
                    "channel": cell.channel,
                    "power_policy": cell.power_policy,
                    "results": {
                        name: {
                            "mean_failed": r.mean_failed,
                            "mean_throughput": r.mean_throughput,
                            "mean_scheduled": r.mean_scheduled,
                        }
                        for name, r in cell.results.items()
                    },
                }
                for cell in cells
            ]
        }
        write_json(payload, args.output)
        print(f"wrote power-sweep grid to {args.output}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace summarize``: aggregate a trace file per span name."""
    from repro.obs.export import (
        TraceFormatError,
        format_trace_summary,
        read_trace,
    )

    try:
        trace = read_trace(args.path)
    except (OSError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_trace_summary(trace, top=args.top, path=args.path))
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """``repro cache stats``: summarize a persisted schedule cache."""
    from repro.cache.store import cache_dir_stats

    try:
        stats = cache_dir_stats(args.dir)
    except NotADirectoryError:
        print(
            f"error: cannot use {args.dir} as a cache directory: not a directory",
            file=sys.stderr,
        )
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{stats['directory']}: {stats['entries']} cached schedules "
        f"({stats['damaged']} damaged), {stats['persisted_hits']} persisted hits, "
        f"mean {stats['mean_links']:.1f} links/entry, "
        f"stale temp files: {stats['stale_tmp']}"
    )
    for algorithm, count in stats["algorithms"].items():
        print(f"  {algorithm}: {count}")
    counters = stats.get("counters")
    if counters is not None:
        print(
            f"  last session [{stats.get('policy')}]: "
            f"{counters['exact_hits']} exact hits, {counters['misses']} misses, "
            f"{counters['evictions']} evictions"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the scheduling service until interrupted."""
    import asyncio

    from repro.service.broker import ScheduleBroker
    from repro.service.loadgen import raise_nofile_limit
    from repro.service.server import ScheduleServer

    raise_nofile_limit()
    cache = None
    if not args.no_cache:
        cache = _open_cache(args.cache_capacity, args.cache_dir)

    async def _serve() -> int:
        broker = ScheduleBroker(
            scheduler=args.scheduler,
            queue_limit=args.queue_limit,
            batch_max=args.batch_max,
            n_workers=args.workers,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            cache=cache,
            use_cache=cache is not None,
            max_sessions=args.max_sessions,
        )
        access = None if args.quiet else (lambda line: print(line, file=sys.stderr))
        server = ScheduleServer(broker, host=args.host, port=args.port, access_log=access)
        await broker.start()
        host, port = await server.start()
        print(f"repro-service listening on http://{host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop.set)
        except (ImportError, NotImplementedError, RuntimeError):
            pass
        try:
            await stop.wait()
        finally:
            await server.close()
            await broker.close(drain=False)
            print(json.dumps(broker.stats, default=str), file=sys.stderr)
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """``repro loadtest``: drive a deterministic load and gate the outcome."""
    import asyncio
    from urllib.parse import urlparse

    from repro.service.broker import ScheduleBroker
    from repro.service.loadgen import raise_nofile_limit, run_loadgen
    from repro.service.server import ScheduleServer

    raise_nofile_limit()

    async def _drive() -> "LoadReport":  # noqa: F821 - forward ref for mypy-free repo
        if args.url:
            parsed = urlparse(args.url)
            if parsed.hostname is None or parsed.port is None:
                raise SystemExit(f"--url must look like http://host:port, got {args.url!r}")
            return await run_loadgen(
                host=parsed.hostname,
                port=parsed.port,
                clients=args.clients,
                ticks=args.ticks,
                arrival=args.arrival,
                pool=args.pool,
                n_links=args.n_links,
                scheduler=args.scheduler,
                tenants=args.tenants,
                seed=args.seed,
                tick_seconds=args.tick_seconds,
                timeout=args.timeout,
            )
        # self-serve: boot an in-process server and aim the clients at it
        broker = ScheduleBroker(scheduler=args.scheduler)
        server = ScheduleServer(broker)
        await broker.start()
        host, port = await server.start()
        try:
            return await run_loadgen(
                host=host,
                port=port,
                clients=args.clients,
                ticks=args.ticks,
                arrival=args.arrival,
                pool=args.pool,
                n_links=args.n_links,
                scheduler=args.scheduler,
                tenants=args.tenants,
                seed=args.seed,
                tick_seconds=args.tick_seconds,
                timeout=args.timeout,
            )
        finally:
            await server.close()
            await broker.close(drain=False)

    report = asyncio.run(_drive())
    summary = report.to_dict()
    print(json.dumps(summary, indent=2))
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    failures = []
    if report.unaccounted != 0:
        failures.append(f"{report.unaccounted} requests unaccounted for")
    if report.transport_errors > args.max_transport_errors:
        failures.append(
            f"{report.transport_errors} transport errors "
            f"(allowed {args.max_transport_errors})"
        )
    if args.min_ok and report.ok < args.min_ok:
        failures.append(f"only {report.ok} requests succeeded (need {args.min_ok})")
    if args.min_peak and report.peak_inflight < args.min_peak:
        failures.append(
            f"peak in-flight {report.peak_inflight} below --min-peak {args.min_peak}"
        )
    if args.max_p99_ms and report.percentile_ms(0.99) > args.max_p99_ms:
        failures.append(
            f"p99 {report.percentile_ms(0.99):.1f}ms exceeds "
            f"--max-p99-ms {args.max_p99_ms:.1f}"
        )
    for failure in failures:
        print(f"loadtest: FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    """Attach the channel-law / power-policy selectors (docs/CHANNELS.md)."""
    from repro.core.powercontrol import POWER_POLICIES

    p.add_argument(
        "--channel",
        metavar="SPEC",
        default=None,
        help="channel law for Monte-Carlo replays: 'rayleigh' (paper), "
        "'nakagami:m=2', 'shadowing:sigma_db=6', 'deterministic', ...; "
        "schedules stay certified under the paper's Rayleigh closed form",
    )
    p.add_argument(
        "--power-policy",
        choices=POWER_POLICIES,
        default=None,
        help="transmit-power policy applied around scheduling "
        "(default: uniform, the paper's setting)",
    )


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    """Attach the fault-tolerance flags shared by sweep-running commands."""
    p.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-work-unit timeout; enables the fault-tolerant executor "
        "(hung units are retried on a fresh worker)",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="pool retries per failed unit before serial fallback; "
        "enables the fault-tolerant executor (default 2 once enabled)",
    )
    p.add_argument(
        "--resume",
        metavar="DIR",
        default=None,
        help="checkpoint each completed work unit under DIR and, on rerun, "
        "recompute only the units missing from it",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fading-resistant link scheduling (Qiu & Shen, ICPP 2017 reproduction)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable observability and write a repro.trace.v1 JSONL trace here",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable observability and print the metric snapshot on exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the command under cProfile and print the hottest entries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random workload file")
    g.add_argument("output", help="destination .csv or .json")
    g.add_argument("--topology", choices=TOPOLOGIES, default="paper")
    g.add_argument("--n-links", type=int, default=300)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_generate)

    s = sub.add_parser("schedule", help="schedule a workload")
    s.add_argument("--input", help="workload file (.csv or .json); omit for a random one")
    s.add_argument("--topology", choices=TOPOLOGIES, default="paper")
    s.add_argument("--n-links", type=int, default=300)
    s.add_argument("--algorithm", default="rle")
    s.add_argument("--alpha", type=float, default=3.0)
    s.add_argument("--gamma-th", type=float, default=1.0)
    s.add_argument("--eps", type=float, default=0.01)
    s.add_argument("--noise", type=float, default=0.0)
    s.add_argument("--trials", type=int, default=0, help="Monte-Carlo trials (0 = skip)")
    s.add_argument("--seed", type=int, default=0)
    _add_channel_flags(s)
    s.add_argument("--output", help="write the JSON result here")
    s.set_defaults(fn=cmd_schedule)

    def _add_figure_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--full", action="store_true", help="paper-scale configuration"
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes for the sweep grid (1 = serial, 0 = all "
            "CPUs; results are identical for every value)",
        )
        _add_resilience_flags(p)
        _add_channel_flags(p)
        p.add_argument("--output", help="write all series as JSON here")

    f = sub.add_parser("figures", help="regenerate the paper's evaluation panels")
    f.add_argument("--panel", choices=PANELS + ("all",), default="all")
    _add_figure_flags(f)
    f.set_defaults(fn=cmd_figures)

    for group_name, group_panels, group_help in (
        ("fig5", ("fig5a", "fig5b"), "regenerate Fig. 5 (failed transmissions)"),
        ("fig6", ("fig6a", "fig6b"), "regenerate Fig. 6 (throughput)"),
    ):
        fg = sub.add_parser(group_name, help=group_help)
        _add_figure_flags(fg)
        fg.set_defaults(fn=cmd_figures, panel_group=group_panels)

    l = sub.add_parser("list", help="list registered schedulers")
    l.set_defaults(fn=cmd_list)

    c = sub.add_parser("constants", help="print the paper's derived constants")
    c.add_argument(
        "--alpha", type=float, nargs="+", default=[2.5, 3.0, 3.5, 4.0, 4.5]
    )
    c.add_argument("--gamma-th", type=float, default=1.0)
    c.add_argument("--eps", type=float, default=0.01)
    c.set_defaults(fn=cmd_constants)

    w = sub.add_parser(
        "traffic", help="run a traffic workload scenario with stability sweep"
    )
    w.add_argument(
        "--config",
        metavar="PATH",
        help="declarative scenario JSON (see docs/WORKLOADS.md); "
        "overrides the inline flags below",
    )
    w.add_argument("--topology", choices=TOPOLOGIES, default="paper")
    w.add_argument("--n-links", type=int, default=12)
    w.add_argument("--algorithm", default="rle")
    w.add_argument(
        "--policy",
        choices=("backlogged", "multislot", "incremental"),
        default="backlogged",
        help="service policy: one-shot on the backlogged sub-instance, "
        "cyclic multislot cover frame, or incremental engine under churn",
    )
    w.add_argument(
        "--arrival",
        choices=("poisson", "onoff", "diurnal", "spikes"),
        default="poisson",
        help="arrival-process family (scaled to --rate mean)",
    )
    w.add_argument(
        "--rate",
        type=float,
        default=0.05,
        help="mean arrival rate, packets per link per slot",
    )
    w.add_argument("--slots", type=int, default=300)
    w.add_argument("--alpha", type=float, default=3.0)
    w.add_argument("--eps", type=float, default=0.05)
    w.add_argument("--noise", type=float, default=0.0)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="per-link queue capacity (arrivals beyond it are dropped)",
    )
    w.add_argument(
        "--no-stability",
        action="store_true",
        help="skip the offered-load stability sweep",
    )
    w.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the stability sweep grid",
    )
    w.add_argument(
        "--cache",
        metavar="DIR|memory",
        default=None,
        help="answer per-slot scheduler runs from a schedule cache "
        "('memory' = in-process, else a persistence directory; "
        "backlogged policy only, see docs/CACHING.md)",
    )
    w.add_argument(
        "--cache-capacity",
        type=int,
        default=256,
        help="maximum cached schedules before eviction",
    )
    w.add_argument("--output", help="write the JSON payload here")
    w.set_defaults(fn=cmd_traffic)

    v = sub.add_parser(
        "verify", help="run the differential + metamorphic verification oracle"
    )
    v.add_argument(
        "--budget",
        type=int,
        default=200,
        help="number of (scenario, check) cells to execute (default 200)",
    )
    v.add_argument("--seed", type=int, default=0, help="scenario-stream root seed")
    v.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="optional wall-clock cap in seconds (stops between cells)",
    )
    v.add_argument(
        "--check",
        action="append",
        metavar="NAME",
        help="run only this check/relation (repeatable; default: all)",
    )
    v.add_argument(
        "--list-checks",
        action="store_true",
        help="list registered checks and relations, then exit",
    )
    v.add_argument("--output", help="write the JSON report here")
    v.set_defaults(fn=cmd_verify)

    m = sub.add_parser("mobility", help="run the mobility study")
    m.add_argument(
        "--algorithm",
        action="append",
        default=None,
        metavar="NAME",
        help="scheduler to include (repeatable; default: ldp and rle)",
    )
    m.add_argument(
        "--speed",
        type=float,
        nargs="+",
        default=[1.0, 5.0, 20.0],
        help="mobility speeds to sweep (region units per step)",
    )
    m.add_argument("--n-links", type=int, default=150)
    m.add_argument("--steps", type=int, default=10, help="trace steps per repetition")
    m.add_argument("--reps", type=int, default=3, help="trace repetitions per speed")
    m.add_argument("--alpha", type=float, default=3.0)
    m.add_argument("--seed", type=int, default=2017)
    m.add_argument(
        "--incremental",
        action="store_true",
        help="schedule with the incremental engine (O(kN) matrix "
        "maintenance + warm-start repair) instead of per-step "
        "from-scratch runs",
    )
    m.add_argument(
        "--move-threshold",
        type=float,
        default=0.0,
        help="minimum sender drift before a move delta is emitted "
        "(incremental mode; 0 = exact geometry every step)",
    )
    m.add_argument(
        "--quality-bound",
        type=float,
        default=0.8,
        help="fall back to a full reschedule when repaired rate drops "
        "below this fraction of the reference rate",
    )
    m.add_argument("--output", help="write the JSON series here")
    m.set_defaults(fn=cmd_mobility)

    r = sub.add_parser("report", help="render the markdown evaluation report")
    r.add_argument("--full", action="store_true", help="paper-scale configuration")
    r.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the sweep grid (1 = serial, 0 = all CPUs)",
    )
    _add_resilience_flags(r)
    _add_channel_flags(r)
    r.add_argument("--output", help="write markdown here instead of stdout")
    r.set_defaults(fn=cmd_report)

    ps = sub.add_parser(
        "power-sweep",
        help="run every registered scheduler over a channel x power-policy grid",
    )
    ps.add_argument(
        "--channel",
        action="append",
        metavar="SPEC",
        default=None,
        help="channel-law spec for the grid (repeatable; default: rayleigh, "
        "nakagami:m=2, shadowing:sigma_db=6, deterministic)",
    )
    ps.add_argument(
        "--policy",
        action="append",
        metavar="NAME",
        default=None,
        help="power policy for the grid (repeatable; default: all registered)",
    )
    ps.add_argument(
        "--algorithm",
        action="append",
        metavar="NAME",
        default=None,
        help="scheduler to include (repeatable; default: every registered one)",
    )
    ps.add_argument("--n-links", type=int, default=12)
    ps.add_argument("--reps", type=int, default=2, help="workload draws per cell")
    ps.add_argument("--trials", type=int, default=100, help="Monte-Carlo trials")
    ps.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per cell sweep (1 = serial, 0 = all CPUs)",
    )
    ps.add_argument("--output", help="write the JSON grid here")
    ps.set_defaults(fn=cmd_power_sweep)

    t = sub.add_parser("trace", help="inspect observability trace files")
    tsub = t.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser("summarize", help="aggregate a JSONL trace per span name")
    ts.add_argument("path", help="trace file written by --trace")
    ts.add_argument(
        "--top", type=int, default=10, help="show the N hottest span names"
    )
    ts.set_defaults(fn=cmd_trace)

    ca = sub.add_parser("cache", help="inspect persisted schedule caches")
    casub = ca.add_subparsers(dest="cache_command", required=True)
    cs = casub.add_parser(
        "stats", help="summarize a cache directory's entries and hit counters"
    )
    cs.add_argument("dir", help="cache directory (written via --cache DIR)")
    cs.set_defaults(fn=cmd_cache_stats)

    sv = sub.add_parser(
        "serve",
        help="run the scheduling service (async HTTP, docs/SERVICE.md)",
    )
    sv.add_argument("--host", default="127.0.0.1", help="bind address")
    sv.add_argument(
        "--port", type=int, default=8323, help="bind port (0 = ephemeral)"
    )
    sv.add_argument(
        "--scheduler",
        default="rle",
        choices=list_schedulers(),
        help="default scheduler for requests that omit one",
    )
    sv.add_argument(
        "--workers", type=int, default=2, help="broker worker tasks / threads"
    )
    sv.add_argument(
        "--queue-limit",
        type=int,
        default=1024,
        help="max distinct pending requests before 503 queue-full",
    )
    sv.add_argument(
        "--batch-max", type=int, default=32, help="max requests drained per batch"
    )
    sv.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        help="per-tenant token-bucket refill (req/s); omit to disable 429s",
    )
    sv.add_argument(
        "--tenant-burst",
        type=float,
        default=64.0,
        help="per-tenant token-bucket burst capacity",
    )
    sv.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every request from scratch (no ScheduleCache front)",
    )
    sv.add_argument(
        "--cache-dir", default=None, help="persist the schedule cache under DIR"
    )
    sv.add_argument(
        "--cache-capacity", type=int, default=512, help="schedule-cache capacity"
    )
    sv.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="max concurrently open delta sessions before 503",
    )
    sv.add_argument(
        "--quiet", action="store_true", help="suppress the per-request access log"
    )
    sv.set_defaults(fn=cmd_serve)

    lt = sub.add_parser(
        "loadtest",
        help="drive a deterministic open-loop load against the service",
    )
    lt.add_argument(
        "--url",
        default=None,
        help="target service, e.g. http://127.0.0.1:8323; omitted = "
        "self-serve an in-process server",
    )
    lt.add_argument(
        "--clients", type=int, default=100, help="concurrent persistent clients"
    )
    lt.add_argument(
        "--ticks", type=int, default=2, help="synchronized burst rounds"
    )
    lt.add_argument(
        "--arrival",
        default="spikes",
        choices=("poisson", "onoff", "diurnal", "spikes"),
        help="workload arrival family shaping per-tick request counts",
    )
    lt.add_argument(
        "--pool", type=int, default=4, help="distinct topologies in the request mix"
    )
    lt.add_argument(
        "--n-links", type=int, default=12, help="links per request topology"
    )
    lt.add_argument(
        "--scheduler", default="rle", choices=list_schedulers(), help="scheduler"
    )
    lt.add_argument(
        "--tenants", type=int, default=1, help="tenant labels cycled across clients"
    )
    lt.add_argument("--seed", type=int, default=0, help="trace + topology seed")
    lt.add_argument(
        "--tick-seconds",
        type=float,
        default=0.0,
        help="pause between burst rounds (0 = back-to-back)",
    )
    lt.add_argument(
        "--timeout", type=float, default=60.0, help="per-request client timeout"
    )
    lt.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail when p99 latency exceeds this many milliseconds",
    )
    lt.add_argument(
        "--min-ok",
        type=int,
        default=None,
        help="fail when fewer than N requests got a 2xx schedule",
    )
    lt.add_argument(
        "--min-peak",
        type=int,
        default=None,
        help="fail when peak concurrent in-flight requests stays below N",
    )
    lt.add_argument(
        "--max-transport-errors",
        type=int,
        default=0,
        help="tolerated connection-level failures (default 0)",
    )
    lt.add_argument(
        "--output", default=None, help="also write the JSON report to this path"
    )
    lt.set_defaults(fn=cmd_loadtest)

    return parser


def _run_observed(args: argparse.Namespace) -> int:
    """Run the selected command under the requested observability wrappers."""
    want_obs = bool(args.trace or args.metrics)
    if want_obs:
        obs.enable()
        obs.reset()
    try:
        if args.profile:
            from repro.obs.profile import profile_call

            code, report = profile_call(args.fn, args)
            print(report.top(25), file=sys.stderr)
        else:
            with span("cli.run", command=args.command):
                code = args.fn(args)
        if args.trace:
            from repro.obs.export import write_trace

            write_trace(
                args.trace,
                obs.drain_spans(),
                metrics_snapshot=obs_metrics.snapshot(),
                command=args.command,
            )
            print(f"wrote trace to {args.trace}", file=sys.stderr)
        if args.metrics:
            print(obs_metrics.format_snapshot(), file=sys.stderr)
        return code
    finally:
        if want_obs:
            obs.disable()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _run_observed(args)


if __name__ == "__main__":
    sys.exit(main())
