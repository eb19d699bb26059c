"""Command-line interface: regenerate the paper's artifacts from a shell.

Subcommands:

* ``maps`` — run the performance-map experiment and print the star
  charts of Figures 3-6 (detectors and corpus scale selectable);
* ``suppression`` — run the Section-7 deployment experiment (Markov
  detects, Stide suppresses) on a UNM-style program;
* ``census`` — count the minimal foreign sequences constructible from
  a corpus (the "Why 6?" analysis) and report the recommended Stide
  window;
* ``anomaly`` — synthesize one MFS against the paper corpus and show
  its parts and frequencies;
* ``trace`` — summarize or validate a JSONL telemetry trace written by
  the ``--trace`` flag of ``maps``/``atlas``/``select``;
* ``plan`` — validate, run, resume, or inspect declarative experiment
  plans (``plans/*.toml``);
* ``serve`` — run the fault-hardened multi-tenant scoring service
  (crash-safe tenant WALs, admission control, circuit breakers,
  optional seeded chaos);
* ``loadgen`` — drive seeded traffic at a ``serve`` instance and
  verify every returned score bit-exactly against a local reference.

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.analysis.census import mfs_census
from repro.analysis.report import format_table, map_agreement_report
from repro.datagen.anomalies import AnomalySynthesizer
from repro.datagen.training import generate_training_data
from repro.detectors.registry import available_detectors, create_detector
from repro.detectors.threshold import MaximalResponseThreshold
from repro.ensemble.combiners import gated_alarms
from repro.evaluation.experiment import DEFAULT_DETECTORS
from repro.evaluation.metrics import evaluate_alarms
from repro.evaluation.render import render_performance_map
from repro.exceptions import ReproError
from repro.params import scaled_params
from repro.sequences.foreign import ForeignSequenceAnalyzer
from repro.syscalls.generator import build_dataset, truth_window_regions
from repro.syscalls.programs import all_program_models


def _corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stream-len",
        type=int,
        default=None,
        help="training-stream length (default: REPRO_STREAM_LEN or 120000)",
    )
    parser.add_argument("--seed", type=int, default=None, help="corpus seed")


def _positive_int(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker count for the sweep engine (1 = serial; more runs "
        "a process pool whose workers load the suite once from a temp "
        "file; results are identical either way)",
    )


def _store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent fit store directory: fits are looked up by "
        "content address (training stream + detector config + schema "
        "version) before training and written back on a miss, so a "
        "repeat run performs zero fits",
    )
    parser.add_argument(
        "--store-cap",
        type=int,
        default=None,
        metavar="BYTES",
        help="size cap for --store; least-recently-used entries are "
        "evicted once the cap is exceeded",
    )


def _telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a schema-versioned JSONL telemetry trace (spans, "
        "counters, histograms) of the run; inspect it with "
        "'repro trace summarize PATH'",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's telemetry counters and histograms",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="DIR",
        help="dump cProfile .pstats files (one per sweep process) into DIR",
    )


def _telemetry(args: argparse.Namespace) -> "object | None":
    """A Telemetry collector when any observability flag was given."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", False)
    profile = getattr(args, "profile", None)
    if trace is None and not metrics and profile is None:
        return None
    from repro.runtime.telemetry import Telemetry

    return Telemetry(profile_dir=profile)


def _emit_collector(args: argparse.Namespace, collector: "object | None") -> None:
    """Write/print the artifacts the observability flags asked for."""
    if collector is None:
        return
    trace_path = getattr(args, "trace", None)
    if trace_path is not None:
        print(f"trace: {collector.write_trace(trace_path)}")
    if getattr(args, "metrics", False):
        snapshot = collector.metrics.snapshot()
        rows = [
            (name, f"{value:g}")
            for name, value in sorted(snapshot["counters"].items())
        ]
        for name, (count, total, _low, high) in sorted(
            snapshot["histograms"].items()
        ):
            mean = total / count if count else 0.0
            rows.append((name, f"n={count:g} mean={mean:g} max={high:g}"))
        print(
            format_table(
                ("metric", "value"),
                rows or [("(none)", "-")],
                title="Telemetry metrics",
            )
        )
    profile_dir = getattr(args, "profile", None)
    if profile_dir is not None:
        written = collector.dump_profiles()
        print(f"profiles: {len(written)} .pstats file(s) in {profile_dir}")


#: Sentinel for ``--resume`` without a path: reuse ``--checkpoint``.
_RESUME_FROM_CHECKPOINT = "@checkpoint"


def _retry_arguments(parser: argparse.ArgumentParser) -> None:
    """The retry/timeout surface shared by the sweep commands.

    Parsed once by :meth:`ResiliencePolicy.from_args`, so the flags
    carry identical semantics on every subcommand exposing them.
    """
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-attempts per sweep block after a transient failure",
    )
    _task_timeout_argument(parser)


def _task_timeout_argument(parser: argparse.ArgumentParser) -> None:
    """``--task-timeout``: the sweep block budget, or serve's deadline."""
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per task: sweep blocks are retried on "
        "overrun; serve requests inherit it as their default deadline",
    )


def _resilience_arguments(parser: argparse.ArgumentParser) -> None:
    _retry_arguments(parser)
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="JSONL file completed cells are streamed to, so an "
        "interrupted sweep can resume",
    )
    parser.add_argument(
        "--resume",
        nargs="?",
        const=_RESUME_FROM_CHECKPOINT,
        default=None,
        metavar="PATH",
        help="resume from a checkpoint file (defaults to the "
        "--checkpoint path); finished cells are adopted bit-identically",
    )


def _checkpoint_paths(
    args: argparse.Namespace,
) -> tuple["str | None", "str | None"]:
    """The (checkpoint, resume_from) paths requested on the command line."""
    import os.path

    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    if resume == _RESUME_FROM_CHECKPOINT:
        if checkpoint is None:
            raise ReproError("--resume without a path requires --checkpoint")
        resume = checkpoint
    if resume is not None and not os.path.exists(resume):
        print(
            f"note: no checkpoint at {resume} yet; starting fresh",
            file=sys.stderr,
        )
        resume = None
    return checkpoint, resume


def _engine(args: argparse.Namespace) -> "object":
    """The SweepEngine every sweep subcommand runs on.

    ``--jobs`` sets the worker count (the engine picks serial or
    process from it); ``--checkpoint``/``--resume`` without a retry
    flag apply the default resilience policy, so the run reports its
    blocks.
    """
    from repro.runtime import ResiliencePolicy, SweepEngine

    resilience = ResiliencePolicy.from_args(args)
    if resilience is None and (
        getattr(args, "checkpoint", None) is not None
        or getattr(args, "resume", None) is not None
    ):
        resilience = ResiliencePolicy()
    store = None
    store_dir = getattr(args, "store", None)
    if store_dir is not None:
        from repro.runtime.store import ArtifactStore

        store = ArtifactStore(store_dir, cap_bytes=getattr(args, "store_cap", None))
    return SweepEngine(
        max_workers=getattr(args, "jobs", 1) or 1,
        resilience=resilience,
        store=store,
        telemetry=_telemetry(args),
    )


#: Training-stream length ``maps --quick`` runs at: the same reduced
#: scale the CI smoke jobs use — every rare pair still appears, the
#: full (size x window) grid is swept, and a run takes seconds.
_QUICK_STREAM_LENGTH = 12_000


def _cmd_maps(args: argparse.Namespace) -> int:
    stream_len = args.stream_len
    if getattr(args, "quick", False) and stream_len is None:
        stream_len = _QUICK_STREAM_LENGTH
    detectors = args.detectors or list(DEFAULT_DETECTORS)
    unknown = [name for name in detectors if name not in available_detectors()]
    if unknown:
        raise ReproError(
            f"unknown detectors: {', '.join(unknown)}; "
            f"available: {', '.join(available_detectors())}"
        )
    checkpoint, resume_from = _checkpoint_paths(args)
    engine = _engine(args)
    # Thin wrapper over a compiled one-stage plan: the CLI and a plan
    # file running the same parameters share one execution path, so
    # their fingerprints — and outputs — are identical by construction.
    from repro.evaluation.experiment import ExperimentResult
    from repro.plans import ExperimentPlan, PlanRunner, SweepStage

    plan = ExperimentPlan(
        name="maps",
        stages=(
            SweepStage(
                name="maps",
                stream_len=stream_len,
                seed=args.seed,
                detectors=tuple(detectors),
            ),
        ),
    )
    report = PlanRunner(
        plan,
        engine=engine,
        checkpoint=checkpoint,
        resume_from=resume_from,
    ).run()
    output = report.results["maps"]
    result = ExperimentResult(
        suite=output.suite, maps=output.maps, run_report=output.run_report
    )
    for name in detectors:
        print(render_performance_map(result.map_for(name)))
        print()
    print(result.summary())
    if engine.resilience is not None:
        print(result.run_report.summary())
    elif engine.store is not None:
        stats = engine.last_fit_stats
        print(
            f"fits: {stats.computed} computed / {stats.from_store} from store"
        )
    if len(detectors) >= 2:
        print()
        print(map_agreement_report(result.maps))
    _emit_collector(args, engine.telemetry)
    return 0


def _cmd_suppression(args: argparse.Namespace) -> int:
    models = {model.name: model for model in all_program_models()}
    if args.program not in models:
        raise ReproError(
            f"unknown program {args.program!r}; available: "
            f"{', '.join(sorted(models))}"
        )
    dataset = build_dataset(
        models[args.program],
        seed=args.seed if args.seed is not None else 1996,
        training_sessions=args.sessions,
    )
    streams = dataset.training_streams()
    alphabet_size = dataset.alphabet.size
    stide = create_detector("stide", args.window, alphabet_size).fit_many(streams)
    markov = create_detector("markov", args.window, alphabet_size).fit_many(streams)
    traces = list(dataset.test_normal) + list(dataset.test_intrusions)
    stide_level = MaximalResponseThreshold.for_detector(stide)
    markov_level = MaximalResponseThreshold.for_detector(markov)
    stide_alarms, markov_alarms, truths = [], [], []
    for trace in traces:
        stide_alarms.append(stide_level.alarms(stide.score_stream(trace.stream)))
        markov_alarms.append(markov_level.alarms(markov.score_stream(trace.stream)))
        truths.append(truth_window_regions(trace, args.window))
    gated = [gated_alarms(m, s) for m, s in zip(markov_alarms, stide_alarms)]
    rows = []
    for name, alarms in (
        ("stide", stide_alarms),
        ("markov", markov_alarms),
        ("markov gated by stide", gated),
    ):
        metrics = evaluate_alarms(alarms, truths)
        rows.append(
            (name, f"{metrics.hit_rate:.2f}", f"{metrics.false_alarm_rate:.4f}")
        )
    print(
        format_table(
            ("detector", "hit rate", "FA rate"),
            rows,
            title=f"{args.program} deployment, DW={args.window}",
        )
    )
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    if args.program:
        models = {model.name: model for model in all_program_models()}
        if args.program not in models:
            raise ReproError(
                f"unknown program {args.program!r}; available: "
                f"{', '.join(sorted(models))}"
            )
        dataset = build_dataset(models[args.program], training_sessions=200)
        stream = np.concatenate(dataset.training_streams())
        label = f"{args.program} traces ({len(stream):,} calls)"
    else:
        params = scaled_params(args.stream_len, seed=args.seed)
        stream = generate_training_data(params).stream
        label = f"paper corpus ({len(stream):,} elements)"
    analyzer = ForeignSequenceAnalyzer(stream)
    census = mfs_census(
        analyzer, lengths=tuple(range(2, args.max_length + 1))
    )
    rows = [(length, count) for length, count in census.rows()]
    print(
        format_table(
            ("MFS length", "count"),
            rows,
            title=f"Minimal-foreign-sequence census — {label}",
        )
    )
    recommendation = census.recommended_stide_window()
    if recommendation is None:
        print("no MFS constructible; any window suffices")
    else:
        print(
            f"largest MFS present: {recommendation} -> deploy Stide with "
            f"DW >= {recommendation} (the 'Why 6?' bound)"
        )
    return 0


def _cmd_anomaly(args: argparse.Namespace) -> int:
    params = scaled_params(args.stream_len, seed=args.seed)
    training = generate_training_data(params)
    anomaly = AnomalySynthesizer(training).synthesize(args.size, index=args.index)
    symbols = training.alphabet.decode(anomaly.sequence)
    print(f"MFS of size {anomaly.size} (candidate #{args.index}):")
    print(f"  symbols: {' '.join(str(s) for s in symbols)}")
    print(f"  codes:   {anomaly.sequence}")
    print(
        f"  left part  {anomaly.left_part} "
        f"(frequency {anomaly.left_part_frequency:.4%})"
    )
    print(
        f"  right part {anomaly.right_part} "
        f"(frequency {anomaly.right_part_frequency:.4%})"
    )
    print(f"  composed of rare parts: {anomaly.parts_rare}")
    return 0


def _cmd_atlas(args: argparse.Namespace) -> int:
    from repro.datagen.suite import build_suite
    from repro.evaluation.render import render_map_summary

    params = scaled_params(args.stream_len, seed=args.seed)
    training = generate_training_data(params)
    suite = build_suite(training=training)
    names = args.detectors or [
        name for name in available_detectors() if name != "neural-network"
    ]
    unknown = [name for name in names if name not in available_detectors()]
    if unknown:
        raise ReproError(
            f"unknown detectors: {', '.join(unknown)}; "
            f"available: {', '.join(available_detectors())}"
        )
    engine = _engine(args)
    checkpoint, resume_from = _checkpoint_paths(args)
    maps = engine.sweep(
        names, suite, checkpoint=checkpoint, resume_from=resume_from
    )
    rows = [
        (
            name,
            len(maps[name].capable_cells()),
            len(maps[name].weak_cells()),
            len(maps[name].blind_cells()),
        )
        for name in names
    ]
    print(
        format_table(
            ("detector", "capable", "weak", "blind"),
            rows,
            title=f"Detector atlas over the {suite.case_count()}-cell grid",
        )
    )
    print()
    for name in names:
        print(render_map_summary(maps[name]))
    if len(names) >= 2:
        print()
        print(map_agreement_report(maps))
    _emit_collector(args, engine.telemetry)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.datagen.suite import build_suite
    from repro.evaluation.response_profile import (
        compare_profiles,
        response_profile,
    )

    params = scaled_params(args.stream_len, seed=args.seed)
    training = generate_training_data(params)
    suite = build_suite(training=training)
    if args.size not in suite.anomaly_sizes:
        raise ReproError(
            f"anomaly size {args.size} outside the suite "
            f"{suite.anomaly_sizes}"
        )
    injected = suite.stream(args.size)
    detectors = args.detectors or ["stide", "markov", "lane-brodley"]
    unknown = [name for name in detectors if name not in available_detectors()]
    if unknown:
        raise ReproError(
            f"unknown detectors: {', '.join(unknown)}; "
            f"available: {', '.join(available_detectors())}"
        )
    profiles = []
    for name in detectors:
        detector = create_detector(name, args.window, params.alphabet_size)
        detector.fit(training.stream)
        profiles.append(response_profile(detector, injected))
    print(
        f"size-{args.size} MFS at position {injected.position}, "
        f"DW={args.window}"
    )
    print("levels: _ 0 | . - = ^ graded | # maximal; | | marks the span\n")
    print(compare_profiles(profiles))
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.datagen.suite import build_suite
    from repro.ensemble import AnomalyProfile, Coverage, select_detectors

    params = scaled_params(args.stream_len, seed=args.seed)
    training = generate_training_data(params)
    suite = build_suite(training=training)
    candidates = args.detectors or ["stide", "markov", "lane-brodley"]
    engine = _engine(args)
    checkpoint, resume_from = _checkpoint_paths(args)
    maps = engine.sweep(
        candidates, suite, checkpoint=checkpoint, resume_from=resume_from
    )
    coverages = {
        name: Coverage.from_performance_map(performance_map)
        for name, performance_map in maps.items()
    }
    profile = AnomalyProfile(
        size=args.size, max_deployable_window=args.max_window
    )
    advice = select_detectors(coverages, profile)
    print(f"recommendation: {advice.describe()}")
    if advice.redundant:
        print(f"redundant: {', '.join(advice.redundant)}")
    print(f"rationale: {advice.rationale}")
    _emit_collector(args, engine.telemetry)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import (
        AdmissionPolicy,
        BatchPolicy,
        ChaosDirector,
        ScoringServer,
        ServeFaultSchedule,
    )
    from repro.serve import tenants

    default_budget = 5.0 if args.task_timeout is None else args.task_timeout
    if not default_budget > 0:
        raise ReproError(f"task_timeout must be > 0, got {default_budget}")
    verify_every = args.delta_verify_every
    if verify_every is None:
        verify_every = tenants.DEFAULT_DELTA_VERIFY_EVERY
    policy = AdmissionPolicy(
        queue_depth=args.queue_depth,
        default_budget=default_budget,
        max_budget=max(30.0, default_budget),
        breaker_failures=args.breaker_failures,
        breaker_reset=args.breaker_reset,
    )
    schedule = None
    if args.chaos_rate > 0:
        schedule = ServeFaultSchedule(rate=args.chaos_rate, seed=args.chaos_seed)
    models = tenants.default_model_store(
        args.models_dir or Path(args.state_dir) / "models",
        hot_cap_bytes=args.hot_cap_mb * 1024 * 1024,
    )
    server = ScoringServer(
        args.state_dir,
        host=args.host,
        port=args.port,
        policy=policy,
        chaos=ChaosDirector(schedule),
        snapshot_every=args.snapshot_every,
        fsync=args.fsync,
        models=models,
        delta_verify_every=verify_every,
        batching=BatchPolicy(
            max_batch=args.batch_max,
            max_wait_us=args.batch_wait_us,
        ),
    )

    async def run() -> None:
        await server.start()
        recovery = server.recovery
        assert recovery is not None
        print(
            f"serving on {args.host}:{server.port} "
            f"(state: {args.state_dir}; recovered {recovery.tenants} "
            f"tenant(s), {recovery.replayed_records} WAL record(s) "
            f"replayed, {len(recovery.quarantined)} quarantined)"
        )
        if args.ready_file:
            import pathlib

            pathlib.Path(args.ready_file).write_text(
                f"{server.port}\n", encoding="utf-8"
            )
        sys.stdout.flush()
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; tenant state is journaled", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_module

    from repro.serve import LoadPlan, run_load

    arrival_rate = None if args.closed else args.rate
    if args.quick:
        plan = LoadPlan.quick(seed=args.seed)
        if arrival_rate is not None:
            import dataclasses

            plan = dataclasses.replace(plan, arrival_rate=arrival_rate)
    else:
        plan = LoadPlan(
            tenants=args.tenants,
            train_chunks=args.train_chunks,
            scores_per_tenant=args.scores,
            seed=args.seed,
            arrival_rate=arrival_rate,
        )
    report = asyncio.run(
        run_load(args.host, args.port, plan, dump_scores=args.dump_scores)
    )
    summary = report.summary()
    print(json_module.dumps(summary, indent=2))
    if args.json:
        import pathlib

        pathlib.Path(args.json).write_text(
            json_module.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
    if report.violations:
        for violation in report.violations[:10]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        print(
            f"no-wrong-score invariant violated {len(report.violations)} "
            "time(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.runtime.telemetry import summarize_trace

    print(summarize_trace(args.path))
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    from repro.runtime.telemetry import check_trace_counters, read_trace

    headers, spans, counters, histograms = read_trace(args.path)
    print(
        f"{args.path}: {len(headers)} header(s), {len(spans)} span(s), "
        f"{len(counters)} counter(s), {len(histograms)} histogram(s) "
        "— schema ok"
    )
    problems = check_trace_counters(counters, spans)
    if problems:
        for problem in problems:
            print(f"inconsistent: {problem}", file=sys.stderr)
        return 1
    print("counters consistent")
    return 0


def _cmd_plan_validate(args: argparse.Namespace) -> int:
    from repro.plans import load_plan

    plan = load_plan(args.plan)
    order = plan.validate()
    fingerprints = plan.fingerprints()
    print(f"plan '{plan.name}': {len(order)} stage(s), order valid")
    for name in order:
        stage = plan.stage(name)
        needs = f" needs={','.join(stage.needs)}" if stage.needs else ""
        print(f"stage {name}: {stage.kind}{needs} {fingerprints[name][:16]}")
    return 0


def _cmd_plan_run(args: argparse.Namespace) -> int:
    from repro.plans import PlanRunner, load_plan
    from repro.runtime import ResiliencePolicy

    plan = load_plan(args.plan)
    collector = _telemetry(args)
    runner = PlanRunner(
        plan,
        run_dir=args.run_dir,
        store=args.store,
        jobs=args.jobs,
        resilience=ResiliencePolicy.from_args(args),
        telemetry=collector,
    )
    report = runner.run()
    print(report.summary())
    _emit_collector(args, collector)
    return 0


def _cmd_plan_status(args: argparse.Namespace) -> int:
    from repro.plans import run_status

    print(run_status(args.run_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Tan & Maxion (DSN 2005) from the command line.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    maps = subparsers.add_parser(
        "maps", help="print the Figure 3-6 performance maps"
    )
    _corpus_arguments(maps)
    _jobs_argument(maps)
    _resilience_arguments(maps)
    _store_arguments(maps)
    _telemetry_arguments(maps)
    maps.add_argument(
        "--quick",
        action="store_true",
        help="CI-scale run: a reduced 12k-element corpus over the full "
        "grid (overridden by an explicit --stream-len)",
    )
    maps.add_argument(
        "--detectors",
        nargs="+",
        metavar="NAME",
        help=f"detectors to chart (default: the paper's four; "
        f"available: {', '.join(available_detectors())})",
    )
    maps.set_defaults(func=_cmd_maps)

    suppression = subparsers.add_parser(
        "suppression", help="run the Section-7 suppression deployment"
    )
    suppression.add_argument("--program", default="sendmail")
    suppression.add_argument("--window", type=int, default=4)
    suppression.add_argument("--sessions", type=int, default=300)
    suppression.add_argument("--seed", type=int, default=None)
    suppression.set_defaults(func=_cmd_suppression)

    census = subparsers.add_parser(
        "census", help="count constructible minimal foreign sequences"
    )
    _corpus_arguments(census)
    census.add_argument(
        "--program",
        default=None,
        help="census a UNM-style program's traces instead of the paper corpus",
    )
    census.add_argument("--max-length", type=int, default=9)
    census.set_defaults(func=_cmd_census)

    anomaly = subparsers.add_parser(
        "anomaly", help="synthesize one minimal foreign sequence"
    )
    _corpus_arguments(anomaly)
    anomaly.add_argument("--size", type=int, default=6)
    anomaly.add_argument("--index", type=int, default=0)
    anomaly.set_defaults(func=_cmd_anomaly)

    atlas = subparsers.add_parser(
        "atlas", help="chart every registered detector on the suite grid"
    )
    _corpus_arguments(atlas)
    _jobs_argument(atlas)
    _resilience_arguments(atlas)
    _store_arguments(atlas)
    _telemetry_arguments(atlas)
    atlas.add_argument(
        "--detectors",
        nargs="+",
        metavar="NAME",
        help="families to chart (default: all but the neural network)",
    )
    atlas.set_defaults(func=_cmd_atlas)

    profile = subparsers.add_parser(
        "profile", help="render detector response sparklines around one MFS"
    )
    _corpus_arguments(profile)
    profile.add_argument("--size", type=int, default=6)
    profile.add_argument("--window", type=int, default=4)
    profile.add_argument("--detectors", nargs="+", metavar="NAME")
    profile.set_defaults(func=_cmd_profile)

    select = subparsers.add_parser(
        "select", help="recommend a detector combination for an anomaly profile"
    )
    _corpus_arguments(select)
    _jobs_argument(select)
    _resilience_arguments(select)
    _store_arguments(select)
    _telemetry_arguments(select)
    select.add_argument(
        "--size",
        type=int,
        default=None,
        help="expected anomaly size; omit when unknown",
    )
    select.add_argument("--max-window", type=int, default=8)
    select.add_argument("--detectors", nargs="+", metavar="NAME")
    select.set_defaults(func=_cmd_select)

    serve = subparsers.add_parser(
        "serve",
        help="run the fault-hardened multi-tenant scoring service",
    )
    serve.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="service state root (per-tenant WALs, manifests, snapshots)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (0 picks a free one; see --ready-file)",
    )
    _task_timeout_argument(serve)
    serve.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=16,
        metavar="N",
        help="per-tenant bounded queue depth; a full queue refuses (429)",
    )
    serve.add_argument(
        "--breaker-failures",
        type=_positive_int,
        default=5,
        metavar="N",
        help="consecutive failures that open a tenant's circuit breaker",
    )
    serve.add_argument(
        "--breaker-reset",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="cool-down before an open breaker admits a probe request",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=8,
        metavar="N",
        help="snapshot a tenant's stream every N ingests (0 disables)",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync WAL appends (power-loss durability; slower)",
    )
    serve.add_argument(
        "--models-dir",
        default=None,
        metavar="DIR",
        help="tiered model store directory (hot LRU -> mmap shards "
        "-> cold); defaults to <state-dir>/models",
    )
    serve.add_argument(
        "--hot-cap-mb",
        type=_positive_int,
        default=64,
        metavar="MB",
        help="hot-tier byte cap for live detector objects",
    )
    serve.add_argument(
        "--delta-verify-every",
        type=int,
        default=None,
        metavar="N",
        help="cross-check one delta-fitted model against a cold refit "
        "every N delta updates (0 disables; default 256)",
    )
    serve.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="probability an eligible request draws an injected fault "
        "(latency, corrupt-event, store-read, worker-crash)",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed of the deterministic chaos schedule",
    )
    serve.add_argument(
        "--batch-max",
        type=_positive_int,
        default=32,
        metavar="N",
        help="max score jobs fused into one micro-batch kernel call "
        "(1 disables cross-tenant batching)",
    )
    serve.add_argument(
        "--batch-wait-us",
        type=float,
        default=250.0,
        metavar="US",
        help="max microseconds a forming batch waits for co-travellers "
        "(single-job batches bypass the wait entirely)",
    )
    serve.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write the bound port here once listening (for harnesses)",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive seeded load at a serve instance and verify every score",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument(
        "--quick",
        action="store_true",
        help="CI-scale plan (2 tenants, 3 train chunks, 6 scores each)",
    )
    loadgen.add_argument("--tenants", type=_positive_int, default=3)
    loadgen.add_argument("--train-chunks", type=_positive_int, default=6)
    loadgen.add_argument("--scores", type=_positive_int, default=9)
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="RPS",
        help="open-loop Poisson arrival rate for the scoring phase; "
        "latency is measured from each request's scheduled arrival "
        "(coordinated-omission-safe)",
    )
    loadgen.add_argument(
        "--closed",
        action="store_true",
        help="closed-loop mode: each tenant sends its next request "
        "only after the previous completes (ignores --rate)",
    )
    loadgen.add_argument(
        "--dump-scores",
        default=None,
        metavar="PATH",
        help="write every verified score response as sorted JSONL "
        "(for byte-for-byte batched-vs-unbatched diffs)",
    )
    loadgen.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the report summary as JSON",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    trace = subparsers.add_parser(
        "trace", help="inspect a --trace telemetry file"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="per-phase time table plus the headline rates"
    )
    summarize.add_argument("path", help="JSONL trace written by --trace")
    summarize.set_defaults(func=_cmd_trace_summarize)
    validate = trace_sub.add_parser(
        "validate",
        help="schema-validate every line and cross-check the counters",
    )
    validate.add_argument("path", help="JSONL trace written by --trace")
    validate.set_defaults(func=_cmd_trace_validate)

    plan = subparsers.add_parser(
        "plan", help="validate and execute declarative experiment plans"
    )
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    plan_validate = plan_sub.add_parser(
        "validate",
        help="parse a plan file, check the stage DAG, print fingerprints",
    )
    plan_validate.add_argument("plan", help="plan file (.toml or .json)")
    plan_validate.set_defaults(func=_cmd_plan_validate)

    def _plan_run_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("plan", help="plan file (.toml or .json)")
        sub.add_argument(
            "--run-dir",
            default=None,
            metavar="DIR",
            help="run directory for checkpoints, the journal and the "
            "canonical stage outputs; a re-run against the same "
            "directory resumes instead of recomputing",
        )
        sub.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="ArtifactStore directory for stage payloads and fits "
            "(default: <run-dir>/store)",
        )
        sub.add_argument(
            "--jobs",
            type=_positive_int,
            default=1,
            metavar="N",
            help="engine workers inside each stage",
        )
        _retry_arguments(sub)
        _telemetry_arguments(sub)

    plan_run = plan_sub.add_parser(
        "run", help="execute every stage of a plan (exactly-once, cached)"
    )
    _plan_run_arguments(plan_run)
    plan_run.set_defaults(func=_cmd_plan_run)

    plan_resume = plan_sub.add_parser(
        "resume",
        help="continue an interrupted run: cached stages are adopted "
        "bit-identically, interrupted sweeps resume from their cell "
        "checkpoints",
    )
    _plan_run_arguments(plan_resume)
    plan_resume.set_defaults(func=_cmd_plan_run)

    plan_status = plan_sub.add_parser(
        "status", help="per-stage progress of a plan run directory"
    )
    plan_status.add_argument("run_dir", help="plan run directory")
    plan_status.set_defaults(func=_cmd_plan_status)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
