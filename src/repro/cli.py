"""Command-line interface: ``python -m repro <command> ...``.

The paper drives experiments through ``make`` targets (``make infra``,
``make run_deployed_benchmark``); this CLI is the equivalent surface:

- ``models``      list the model zoo;
- ``infra-test``  the Figure 2 serving-stack test;
- ``micro``       the Figure 3 serial microbenchmark for one configuration;
- ``run``         one deployed benchmark (Figure 4 style);
- ``drill``       a scripted zone-outage failure drill (docs/availability.md);
- ``plan``        the Table I cost-efficiency planner for a scenario;
- ``workload``    generate a synthetic click log (Algorithm 1) to CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core import (
    SLO,
    DeploymentPlanner,
    ExperimentRunner,
    ExperimentSpec,
    HardwareSpec,
    Scenario,
    run_infra_test,
    serial_microbenchmark,
)
from repro.core.features import FEATURES, render_availability, report_lines
from repro.core.report import render_latency_series, render_scenario_table
from repro.exec.backend import ExecTask, make_backend
from repro.hardware.clouds import cloud_catalog
from repro.hardware.instances import instance_by_name
from repro.models import BENCHMARK_MODELS, HEALTHY_MODELS, MODEL_REGISTRY
from repro.workload import SyntheticWorkloadGenerator, WorkloadStatistics


def _add_models_command(subparsers) -> None:
    subparsers.add_parser("models", help="list the model zoo")


def _add_infra_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "infra-test", help="Figure 2: serving stacks with no model inference"
    )
    parser.add_argument("--server", choices=("actix", "torchserve"), default="actix")
    parser.add_argument("--rps", type=int, default=1000)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=1234)
    _add_trace_flags(parser)
    _add_features(parser, *(n for n, f in FEATURES.items() if f.infra_arg))


def _add_micro_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "micro", help="Figure 3: serial prediction-latency microbenchmark"
    )
    parser.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--execution", choices=("eager", "jit", "onnx"), default="jit")
    parser.add_argument("--requests", type=int, default=200)


def _add_run_command(subparsers) -> None:
    parser = subparsers.add_parser("run", help="one deployed benchmark")
    parser.add_argument("--spec", help="declarative JSON spec file (overrides flags)")
    parser.add_argument("--model", choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--catalog", type=int)
    parser.add_argument("--rps", type=int)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--execution", choices=("eager", "jit", "onnx"), default="jit")
    parser.add_argument("--p90-limit", type=float, default=50.0)
    parser.add_argument("--series", action="store_true", help="print per-second series")
    parser.add_argument("--plot", action="store_true",
                        help="ASCII latency-vs-load chart (the Figure 4 view)")
    _add_trace_flags(parser)
    _add_features(parser, *FEATURES)
    parser.add_argument("--backend", **_BACKEND_FLAG)


def _add_drill_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "drill",
        help="scripted failure drill: zone outage -> degradation -> recovery",
    )
    parser.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--rps", type=int, required=True)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--p90-limit", type=float, default=50.0)
    parser.add_argument("--seed", type=int, default=1234)
    _add_features(parser, "sharding")
    parser.add_argument(
        "--zones", type=int, default=2, metavar="N",
        help="failure domains to spread the fleet over (default 2)",
    )
    parser.add_argument(
        "--zones-down", type=int, default=1, metavar="N",
        help="zones (z0..) crashed simultaneously mid-run (default 1)",
    )
    parser.add_argument(
        "--outage-at", type=float, default=None, metavar="SECONDS",
        help="outage time relative to load start (default: duration/3)",
    )
    parser.add_argument(
        "--restart-after", default="20", metavar="SECONDS",
        help="kubelet restart delay for the crashed zone, or 'none' to "
        "leave it dark (default 20)",
    )
    parser.add_argument(
        "--routing", default=None, metavar="SPEC",
        help="health-aware service routing for the drilled deployment; "
        "SPEC like 'lor,eject=3' (default: plain round-robin)",
    )


def _add_plan_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "plan", help="Table I: cheapest feasible deployment per instance type"
    )
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--rps", type=int, required=True)
    parser.add_argument(
        "--models", default=",".join(HEALTHY_MODELS),
        help="comma-separated model names",
    )
    parser.add_argument("--cloud", choices=("gcp", "aws", "azure"), default="gcp")
    parser.add_argument("--p90-limit", type=float, default=50.0)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--max-replicas", type=int, default=8)
    _add_features(parser, "cache")
    parser.add_argument(
        "--shards", default="1", metavar="COUNTS",
        help="comma-separated catalog-shard counts to evaluate per "
        "instance type, e.g. '1,4,8' (replica counts are then per shard)",
    )
    _add_features(parser, "retrieval")
    parser.add_argument(
        "--min-recall", type=float, default=0.95, metavar="FLOAT",
        help="recall@k floor for ANN candidates; IVF options whose "
        "measured recall falls below this are reported infeasible "
        "(default 0.95)",
    )
    _add_features(
        parser, "scheduler", action="append",
        help=FEATURES["scheduler"].help + "; repeat to sweep CPU:GPU mix ratios",
    )
    parser.add_argument(
        "--survive-zones", type=int, default=0, metavar="N",
        help="availability requirement: every admitted option must pass "
        "a failure drill with N zones permanently dark (candidates "
        "deploy across N+1 failure domains and pay for the extra "
        "replicas; default 0 = single-domain planning)",
    )
    _add_features(parser, "tenants")
    parser.add_argument("--backend", **_BACKEND_FLAG)


def _add_compare_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="run several models on the same deployment"
    )
    parser.add_argument(
        "--models", default=",".join(HEALTHY_MODELS),
        help="comma-separated model names",
    )
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--rps", type=int, required=True)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--p90-limit", type=float, default=50.0)


def _add_profile_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "profile", help="per-op cost breakdown of one model forward pass"
    )
    parser.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--instance", default="CPU")
    parser.add_argument("--rows", type=int, default=15)


def _add_reproduce_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "reproduce", help="regenerate the paper's evaluation as markdown"
    )
    parser.add_argument(
        "--artifacts", default="fig2,fig3,fig4,tab1,alg1,bugs",
        help="comma-separated subset of fig2,fig3,fig4,tab1,alg1,bugs",
    )
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--micro-requests", type=int, default=120)
    parser.add_argument("--out", default="-", help="markdown path or '-'")


def _add_workload_command(subparsers) -> None:
    parser = subparsers.add_parser(
        "workload", help="Algorithm 1: generate a synthetic click log"
    )
    parser.add_argument("--catalog", type=int, required=True)
    parser.add_argument("--clicks", type=int, default=100_000)
    parser.add_argument("--alpha-length", type=float, default=1.85)
    parser.add_argument("--alpha-clicks", type=float, default=1.35)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--out", default="-", help="CSV path or '-' for stdout")
    parser.add_argument("--head", type=int, default=20,
                        help="rows to print when writing to stdout")


def _add_trace_flags(parser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="record per-request spans + metrics; print the stage breakdown",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the span trace as JSON to PATH (implies --trace)",
    )


def _add_features(parser, *names, **overrides) -> None:
    """Add the feature table's flags for ``names``, in that order.

    A value is parsed when the flag is read, so a bad one exits with the
    flag named; the namespace keeps the text.
    """
    for name in names:
        feature = FEATURES[name]

        def check(text: str, feature=feature) -> str:
            try:
                feature.coerce(text)
            except ValueError as error:
                raise argparse.ArgumentTypeError(str(error))
            return text

        kwargs = dict(
            default=None, metavar=feature.metavar, help=feature.help, type=check
        )
        if feature.const is not None:
            kwargs.update(nargs="?", const=feature.const)
        kwargs.update(overrides)
        parser.add_argument(feature.flag, **kwargs)


def _feature_values(args) -> dict:
    """Typed values of the table flags given, by ``ExperimentSpec`` field."""
    values = {}
    for feature in FEATURES.values():
        text = getattr(args, feature.flag[2:].replace("-", "_"), None)
        value = None if text is None else feature.coerce(text)
        if value is not None:
            values[feature.name] = value
    return values


#: The --backend flag of ``run`` and ``plan``.
_BACKEND_FLAG = dict(
    default=None, metavar="SPEC",
    help="execution backend for independent candidate evaluations "
    "and multi-job spec files: 'serial' (default) or "
    "'mp[:workers=N]' (process pool, N=0 or omitted means one "
    "worker per core); results are bit-identical either way. "
    "Overrides the ETUDE_BACKEND env var (docs/parallelism.md)",
)


def _backend(args):
    """Backend instance from the --backend flag (or ETUDE_BACKEND)."""
    try:
        return make_backend(getattr(args, "backend", None))
    except ValueError as error:
        raise SystemExit(str(error))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ETUDE reproduction: benchmark SBR model serving.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_models_command(subparsers)
    _add_infra_command(subparsers)
    _add_micro_command(subparsers)
    _add_run_command(subparsers)
    _add_drill_command(subparsers)
    _add_plan_command(subparsers)
    _add_compare_command(subparsers)
    _add_profile_command(subparsers)
    _add_reproduce_command(subparsers)
    _add_workload_command(subparsers)
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _make_telemetry(args):
    """A fresh Telemetry when --trace/--trace-out was given, else None."""
    trace_out = getattr(args, "trace_out", None)
    if not (getattr(args, "trace", False) or trace_out):
        return None
    if trace_out:
        # Fail before the (possibly long) run, not after it.
        try:
            with open(trace_out, "a"):
                pass
        except OSError as error:
            raise SystemExit(f"cannot write --trace-out {trace_out!r}: {error}")
    from repro.obs import Telemetry

    return Telemetry()


def _emit_telemetry(telemetry, out, trace_out: Optional[str]) -> None:
    """Print the per-stage breakdown + timeline, optionally dump the trace."""
    from repro.obs import (
        render_breakdown,
        render_timeline,
        stage_breakdown,
        trace_to_json,
    )

    report = stage_breakdown(telemetry.trace)
    if report is not None:
        out.write(render_breakdown(report) + "\n")
    else:
        out.write("no completed (HTTP 200) traced requests; no breakdown\n")
    if telemetry.sampler is not None and telemetry.sampler.ticks:
        out.write(render_timeline(telemetry.sampler) + "\n")
    if trace_out:
        try:
            with open(trace_out, "w") as handle:
                handle.write(trace_to_json(telemetry.trace, indent=2))
        except OSError as error:
            raise SystemExit(f"cannot write --trace-out {trace_out!r}: {error}")
        spans = len(telemetry.trace.spans)
        out.write(f"wrote {spans} spans to {trace_out}\n")


def _or_na(value: Optional[float], spec: str, unit: str = "") -> str:
    """``value`` formatted with ``spec`` and ``unit``; ``n/a`` when it was
    never measured (a percentile of a run with no 200s, say)."""
    return "n/a" if value is None else f"{value:{spec}}{unit}"


def _cmd_models(_args, out) -> int:
    out.write("benchmarked models (paper Section II):\n")
    for name in BENCHMARK_MODELS:
        healthy = "" if name in HEALTHY_MODELS else "   [known performance bug]"
        out.write(f"  {name}{healthy}\n")
    out.write("plus: noop (Figure 2 infrastructure test)\n")
    return 0


def _cmd_infra(args, out) -> int:
    telemetry = _make_telemetry(args)
    if telemetry is not None and args.server != "actix":
        out.write("note: --trace instruments only the actix server\n")
    features = {
        FEATURES[name].infra_arg: value
        for name, value in _feature_values(args).items()
    }
    try:
        result = run_infra_test(
            args.server,
            target_rps=args.rps,
            duration_s=args.duration,
            seed=args.seed,
            telemetry=telemetry,
            **features,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    out.write(render_latency_series(result.series, args.server, every=20) + "\n")
    out.write(
        f"{args.server}: {result.ok}/{result.total} ok, "
        f"{result.errors} errors ({result.error_rate * 100:.1f}%), "
        f"p90={_or_na(result.p90_ms, '.2f', ' ms')}\n"
    )
    for line in report_lines(result):
        out.write(line + "\n")
    if telemetry is not None:
        _emit_telemetry(telemetry, out, args.trace_out)
    return 0


def _cmd_micro(args, out) -> int:
    result = serial_microbenchmark(
        args.model,
        args.catalog,
        instance_by_name(args.instance),
        args.execution,
        num_requests=args.requests,
    )
    fallback = " (JIT failed -> eager)" if result.jit_failed else ""
    out.write(
        f"{args.model} C={args.catalog:,} on {args.instance} "
        f"[{result.execution_effective}{fallback}]: "
        f"mean={result.mean_ms:.3f} p50={result.p50_ms:.3f} "
        f"p90={result.p90_ms:.3f} p99={result.p99_ms:.3f} ms\n"
    )
    return 0


def _cmd_run(args, out) -> int:
    runner = ExperimentRunner()
    features = _feature_values(args)
    if args.spec:
        from repro.core.specfile import load_spec_file

        try:
            jobs = load_spec_file(args.spec)
        except OSError as error:
            raise SystemExit(
                f"cannot read spec file {args.spec!r}: {error.strerror}"
            )
        except ValueError as error:
            raise SystemExit(f"bad spec file {args.spec!r}: {error}")
        # CLI flags override the spec file's settings.
        jobs = [(replace(spec, **features), slo) for spec, slo in jobs]
    else:
        model = args.model
        if model is None and "tenants" in features:
            # A fleet names its own models; the anchor defaults to the
            # first primary tenant's.
            model = features["tenants"].primaries[0].model
        for required, value in (
            ("model", model), ("catalog", args.catalog), ("rps", args.rps),
        ):
            if value is None:
                raise SystemExit(f"--{required} is required without --spec")
        jobs = [
            (
                ExperimentSpec(
                    model=model,
                    catalog_size=args.catalog,
                    target_rps=args.rps,
                    hardware=HardwareSpec(args.instance, args.replicas),
                    duration_s=args.duration,
                    execution=args.execution,
                    **features,
                ),
                SLO(p90_latency_ms=args.p90_limit),
            )
        ]

    # Independent jobs of a multi-job spec file can fan out to the
    # execution backend; results come back in job order so the rendered
    # report is byte-identical to a serial run. Tracing stays serial —
    # a Telemetry bundle is live in-process state, not a picklable task
    # payload.
    precomputed = None
    backend = _backend(args)
    if backend.config.parallel and len(jobs) > 1:
        if _make_telemetry(args) is not None:
            out.write(
                "note: --trace forces the serial backend "
                "(spans are recorded in-process)\n"
            )
        else:
            tasks = [
                ExecTask(
                    key=("experiment_run", index),
                    kind="experiment_run",
                    payload={"spec": spec, "seed": runner.seed},
                )
                for index, (spec, _slo) in enumerate(jobs)
            ]
            precomputed = []
            for outcome in backend.run_tasks(tasks):
                if outcome.memos:
                    runner.registry.absorb_memos(outcome.memos)
                value = outcome.value
                if isinstance(value, dict) and "deployment_error" in value:
                    # Same failure surface as the serial path, which
                    # lets runner.run's DeploymentError propagate.
                    from repro.cluster.kubernetes import DeploymentError

                    raise DeploymentError(value["deployment_error"])
                precomputed.append(value)

    all_ok = True
    for index, (spec, slo) in enumerate(jobs):
        telemetry = _make_telemetry(args)
        if precomputed is not None:
            result = precomputed[index]
        else:
            result = runner.run(spec, telemetry=telemetry)
        if args.series and result.series is not None:
            out.write(
                render_latency_series(result.series, spec.model, every=10) + "\n"
            )
        if args.plot and result.series is not None:
            from repro.core.ascii_plot import plot_latency_curve

            out.write(plot_latency_curve(result.series, title=spec.model) + "\n")
        p90_target = result.p90_at_target_ms
        meets = result.meets_slo(slo.p90_latency_ms, slo.max_error_rate)
        all_ok = all_ok and meets
        out.write(
            f"{spec.model} C={spec.catalog_size:,} on "
            f"{spec.hardware.instance_type} x{spec.hardware.replicas} "
            f"@ {spec.target_rps} req/s [{result.execution_mode}]\n"
            f"  ok={result.ok_requests} errors={result.error_requests} "
            f"achieved={result.achieved_rps:.0f} req/s\n"
            f"  p50/p90/p99={_or_na(result.p50_ms, '.1f')}/"
            f"{_or_na(result.p90_ms, '.1f')}/{_or_na(result.p99_ms, '.1f')} ms, "
            f"p90@target={_or_na(p90_target, '.1f', ' ms')}\n"
            f"  meets p90<={slo.p90_latency_ms:.0f}ms SLO: {meets}\n"
        )
        for line in report_lines(result):
            out.write(line + "\n")
        if telemetry is not None:
            trace_out = args.trace_out
            if trace_out and len(jobs) > 1:
                # One trace file per job of a multi-job spec file.
                stem, dot, ext = trace_out.rpartition(".")
                trace_out = (
                    f"{stem}-{index}.{ext}" if dot else f"{trace_out}-{index}"
                )
            _emit_telemetry(telemetry, out, trace_out)
    return 0 if all_ok else 2


def _cmd_drill(args, out) -> int:
    from repro.core.drill import run_failure_drill

    if args.restart_after.lower() in ("none", "never"):
        restart_after = None
    else:
        try:
            restart_after = float(args.restart_after)
        except ValueError:
            raise SystemExit(
                f"--restart-after must be seconds or 'none': {args.restart_after!r}"
            )
    try:
        spec = ExperimentSpec(
            model=args.model,
            catalog_size=args.catalog,
            target_rps=args.rps,
            hardware=HardwareSpec(args.instance, args.replicas),
            duration_s=args.duration,
            sharding=args.shards,
            routing=args.routing,
            zones=args.zones,
            seed=args.seed,
        )
        report = run_failure_drill(
            spec,
            SLO(p90_latency_ms=args.p90_limit),
            zones_down=args.zones_down,
            outage_at_s=args.outage_at,
            restart_after_s=restart_after,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    restart_text = (
        f"restart after {restart_after:g} s"
        if restart_after is not None
        else "no restart"
    )
    out.write(
        f"{spec.model} C={spec.catalog_size:,} on {args.instance} "
        f"x{args.replicas} @ {args.rps} req/s, zones={args.zones}\n"
        f"  outage: {report.zone} down at t={report.outage_at_s:g} s "
        f"({restart_text})\n"
    )
    out.write(f"{'window':>8} {'secs':>5} {'ok':>7} {'errors':>7} {'ok%':>7} {'p90_ms':>8}\n")
    for window in (report.before, report.during, report.after):
        p90 = f"{window.p90_ms:.2f}" if window.p90_ms is not None else "-"
        out.write(
            f"{window.name:>8} {window.seconds:>5} {window.ok:>7} "
            f"{window.errors:>7} {window.ok_fraction * 100:>6.1f}% {p90:>8}\n"
        )
    ttr = report.time_to_recovery_s
    out.write(
        f"  min coverage={report.min_coverage * 100:.1f}%, "
        f"TTR={_or_na(ttr, '.1f', ' s')}\n"
        f"  survived: {report.survived}  recovered: {report.recovered}\n"
    )
    if report.result.availability is not None:
        out.write(render_availability(report.result.availability) + "\n")
    return 0 if report.survived and report.recovered else 2


def _cmd_plan(args, out) -> int:
    tenants = FEATURES["tenants"].coerce(args.tenants)
    if tenants is not None:
        # Bin-packing dimension: cheapest co-located fleet vs. the
        # standalone per-tenant baseline (docs/tenancy.md).
        from repro.core.report import render_fleet_plan
        from repro.tenancy.placement import FleetPlanner

        if args.backend is not None:
            out.write(
                "note: --backend does not apply to fleet planning; "
                "running serially\n"
            )

        planner = FleetPlanner(
            runner=ExperimentRunner(),
            slo=SLO(p90_latency_ms=args.p90_limit),
            duration_s=args.duration,
            max_replicas=args.max_replicas,
        )
        plan = planner.plan(
            tenants, args.catalog, args.rps,
            instances=cloud_catalog(args.cloud),
        )
        out.write(render_fleet_plan(plan) + "\n")
        return 0 if plan.cheapest() is not None else 2
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    scenario = Scenario("custom", args.catalog, args.rps)
    try:
        shard_counts = tuple(
            int(s.strip()) for s in args.shards.split(",") if s.strip()
        )
    except ValueError:
        raise SystemExit(f"--shards must be comma-separated ints: {args.shards!r}")
    retrieval = FEATURES["retrieval"].coerce(args.retrieval)
    retrieval_options = (
        (None,)
        if retrieval is None or not retrieval.enabled
        else (None, retrieval)
    )
    if args.survive_zones < 0:
        raise SystemExit("--survive-zones must be >= 0")
    planner = DeploymentPlanner(
        runner=ExperimentRunner(),
        slo=SLO(p90_latency_ms=args.p90_limit),
        duration_s=args.duration,
        max_replicas=args.max_replicas,
        cache=FEATURES["cache"].coerce(args.cache),
        shard_counts=shard_counts or (1,),
        retrieval_options=retrieval_options,
        min_recall=args.min_recall,
        scheduler_options=(None,) + tuple(
            config
            for config in map(FEATURES["scheduler"].coerce, args.scheduler or ())
            if config.enabled
        ),
        survive_zones=args.survive_zones,
        backend=_backend(args),
    )
    instances = cloud_catalog(args.cloud)
    plans = planner.plan(scenario, models, instances=instances)
    out.write(
        render_scenario_table(
            {scenario.name: plans},
            models,
            instance_names=[i.name for i in instances],
        )
        + "\n"
    )
    return 0


def _cmd_compare(args, out) -> int:
    from repro.core.studies import compare_models

    models = [m.strip() for m in args.models.split(",") if m.strip()]
    outcomes = compare_models(
        ExperimentRunner(),
        models,
        catalog_size=args.catalog,
        target_rps=args.rps,
        hardware=HardwareSpec(args.instance, args.replicas),
        duration_s=args.duration,
        p90_limit_ms=args.p90_limit,
    )
    out.write(
        f"C={args.catalog:,} @ {args.rps} req/s on {args.instance} "
        f"x{args.replicas} (p90 <= {args.p90_limit:.0f} ms)\n"
    )
    out.write(f"{'model':<12} {'p90@target ms':>14} {'errors':>8} {'SLO':>5}\n")
    for model in models:
        result = outcomes[model]
        if result is None:
            out.write(f"{model:<12} {'cannot deploy':>14} {'-':>8} {'no':>5}\n")
            continue
        p90 = result.p90_at_target_ms
        out.write(
            f"{model:<12} {p90 if p90 is None else f'{p90:.1f}':>14} "
            f"{result.error_requests:>8} "
            f"{'yes' if result.meets_slo(args.p90_limit) else 'no':>5}\n"
        )
    return 0


def _cmd_profile(args, out) -> int:
    from repro.models import ModelConfig, create_model
    from repro.tensor.profiler import profile_model

    model = create_model(args.model, ModelConfig.for_catalog(args.catalog))
    report = profile_model(model, instance_by_name(args.instance).device)
    out.write(f"{args.model} C={args.catalog:,}\n")
    out.write(report.render(max_rows=args.rows) + "\n")
    return 0


def _cmd_reproduce(args, out) -> int:
    from repro.core.reproduce import ReproduceConfig, reproduce

    config = ReproduceConfig(
        duration_s=args.duration,
        micro_requests=args.micro_requests,
        artifacts=tuple(
            artifact.strip() for artifact in args.artifacts.split(",") if artifact.strip()
        ),
    )
    report = reproduce(config)
    if args.out == "-":
        out.write(report + "\n")
    else:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        out.write(f"wrote report to {args.out}\n")
    return 0


def _cmd_workload(args, out) -> int:
    statistics = WorkloadStatistics(
        catalog_size=args.catalog,
        alpha_length=args.alpha_length,
        alpha_clicks=args.alpha_clicks,
    )
    log = SyntheticWorkloadGenerator(statistics, seed=args.seed).generate_clicks(
        args.clicks
    )
    lines = ["session_id,item_id,step"]
    lines.extend(
        f"{s},{i},{t}"
        for s, i, t in zip(log.session_ids, log.item_ids, log.steps)
    )
    if args.out == "-":
        for line in lines[: args.head + 1]:
            out.write(line + "\n")
        out.write(f"... {len(log):,} clicks, {log.num_sessions:,} sessions\n")
    else:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        out.write(f"wrote {len(log):,} clicks to {args.out}\n")
    return 0


_COMMANDS = {
    "models": _cmd_models,
    "infra-test": _cmd_infra,
    "micro": _cmd_micro,
    "run": _cmd_run,
    "drill": _cmd_drill,
    "plan": _cmd_plan,
    "compare": _cmd_compare,
    "profile": _cmd_profile,
    "reproduce": _cmd_reproduce,
    "workload": _cmd_workload,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
