"""Command-line interface.

Subcommands::

    repro list-algorithms                      # registry contents
    repro optimize --topology star --n 8 ...   # optimize one query
    repro trace --algorithm mincutlazy ...     # traced run + recursion tree
    repro profile --flamegraph-out out.folded  # kernel-level profiler run
    repro explain --phases TBNmcP,TBCnaiveP    # bounding ledger / phase diff
    repro profile-memo --out prof.json ...     # trace -> memo cost profile
    repro experiment fig9 [--scale paper]      # regenerate a figure/table
    repro experiment all [--scale small]       # everything (EXPERIMENTS.md)
    repro verify [--fuzz N] [--invariant ...]  # conformance invariants
    repro lint src/ [--format json] ...        # repo-aware static analysis
    repro serve [--port 7411] [--once]         # resident plan service

``--algorithm`` takes any registry name (``repro.registry``): a Table 1
name or alias plus the ``%policy[:cap[:cold]]`` bounded memo
(Section 5.1), ``?budget`` anytime and ``^k`` ranking suffixes, e.g.
``--algorithm TBNmc%lru:64`` or ``--algorithm TBNmcAP?500n``.  A name
the registry rejects ends the run with one ``error:`` line and exit
status 2.

``optimize`` accepts ``--json`` (machine-readable result),
``--trace-out PATH`` (JSONL span dump, one span per memoized expression
explored), ``--profile-out PATH`` (kernel profiler report JSON) and
``--memo-profile PATH`` (offline weights for a ``%profile`` memo);
``trace`` prints the recursion tree of ``docs/observability.md``;
``profile`` attributes exclusive wall time to named kernels and exports
collapsed-stack flamegraphs (``docs/profiling.md``); ``explain``
reconstructs the per-expression bounding ledger from a live or dumped
trace, or — with ``--phases`` — diffs the last two phases of a
multiphase run; ``profile-memo`` distills a traced run (or an existing
trace file) into the per-expression recompute weights that a
``%profile`` memo consumes.

Every ``--*-out PATH`` option creates missing parent directories up
front, before the (possibly long) optimization runs, and fails fast with
exit status 2 when it cannot.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro.analysis.metrics import Metrics
from repro.experiments import EXPERIMENTS
from repro.obs import (
    MetricsRegistry,
    RecordingProfiler,
    RecordingTracer,
    Stopwatch,
    bounding_ledger,
    read_jsonl,
    render_kernel_table,
    render_ledger,
    render_summary,
    render_trace_tree,
    write_jsonl,
)
from repro.registry import (
    OptimizerConfig,
    available_algorithms,
    make_optimizer,
    parse_name,
)
from repro.experiments.common import graph_maker
from repro.workloads.seeding import DEFAULT_SEED
from repro.workloads.weights import weighted_query

__all__ = ["main"]


def _prepare_out_path(path: str) -> str | None:
    """Create ``path``'s parent directory; returns an error message on failure.

    Called before optimization for every ``--*-out`` option so a typo'd
    directory fails fast instead of discarding a finished run.
    """
    parent = os.path.dirname(path)
    if not parent:
        return None
    try:
        os.makedirs(parent, exist_ok=True)
    except OSError as exc:
        return f"cannot create directory {parent!r} for {path!r}: {exc}"
    return None


def _prepare_out_paths(*paths: str | None) -> int | None:
    """Prepare several output paths; prints and returns 2 on failure."""
    for path in paths:
        if not path:
            continue
        error = _prepare_out_path(path)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
    return None


def _cmd_list_algorithms(_args: argparse.Namespace) -> int:
    for name in available_algorithms():
        spec = parse_name(name)
        direction = "top-down " if spec.top_down else "bottom-up"
        optimal = "optimal" if spec.is_optimal_enumeration else "suboptimal"
        bounding = spec.bounding.name if spec.bounding else "exhaustive"
        print(
            f"{name:12s} {direction} {spec.space.describe():18s} "
            f"{spec.style:6s} {optimal:10s} {bounding}"
        )
    return 0


def _build_query(args: argparse.Namespace):
    if getattr(args, "query", None):
        from repro.catalog.parser import parse_query

        return parse_query(args.query)
    make = graph_maker(args.topology)
    graph = make(args.n, args.seed)
    return weighted_query(graph, args.seed)


def _load_memo_profile(args: argparse.Namespace):
    """Load ``--memo-profile`` if given; returns (profile, error_code)."""
    path = getattr(args, "memo_profile", None)
    if not path:
        return None, None
    from repro.cache.costing import CostProfile

    try:
        return CostProfile.load(path), None
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load memo profile {path!r}: {exc}", file=sys.stderr)
        return None, 2


def _cmd_optimize(args: argparse.Namespace) -> int:
    failure = _prepare_out_paths(
        getattr(args, "trace_out", None), getattr(args, "profile_out", None)
    )
    if failure is not None:
        return failure
    query = _build_query(args)
    metrics = Metrics()
    tracing = bool(getattr(args, "trace_out", None))
    tracer = RecordingTracer() if tracing else None
    profiler = (
        RecordingProfiler() if getattr(args, "profile_out", None) else None
    )
    registry = MetricsRegistry() if (tracing or args.json) else None
    memo_profile, error = _load_memo_profile(args)
    if error is not None:
        return error
    config = OptimizerConfig.parse(args.algorithm)
    try:
        optimizer = make_optimizer(
            config,
            query,
            metrics=metrics,
            tracer=tracer,
            registry=registry,
            profiler=profiler,
            memo_profile=memo_profile,
        )
    except ValueError as exc:  # e.g. --profile-out on a bottom-up name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ranked = None
    with Stopwatch() as stopwatch:
        if config.top_k is not None:
            ranked = optimizer.optimize_topk(config.top_k)
            plan = ranked[0]
        else:
            plan = optimizer.optimize()
    anytime_report = getattr(optimizer, "anytime", None)
    elapsed = stopwatch.elapsed_total
    if tracer is not None:
        try:
            span_count = write_jsonl(tracer, args.trace_out)
        except OSError as exc:
            print(f"cannot write trace to {args.trace_out!r}: {exc}", file=sys.stderr)
            return 2
    profile_report = None
    if profiler is not None:
        profile_report = profiler.report(elapsed)
        profile_report["algorithm"] = args.algorithm
        profile_report["query"] = query.describe()
        try:
            with open(args.profile_out, "w", encoding="utf-8") as handle:
                json.dump(profile_report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(
                f"cannot write profile to {args.profile_out!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    if args.json:
        payload = {
            "query": query.describe(),
            "algorithm": args.algorithm,
            "elapsed_ms": elapsed * 1e3,
            "cost": plan.cost,
            "plan": plan.sql_like(),
            "plan_tree": plan.tree_string(),
            "metrics": metrics.to_dict(),
        }
        memo = getattr(optimizer, "memo", None)
        if memo is not None and hasattr(memo, "summary"):
            payload["memo"] = memo.summary()
        if registry is not None:
            payload["instruments"] = registry.to_dict()
        if tracer is not None:
            payload["trace"] = {"path": args.trace_out, "spans": span_count}
        if profile_report is not None:
            payload["profile"] = {
                "path": args.profile_out,
                "kernels": [row["kernel"] for row in profile_report["kernels"]],
            }
        if anytime_report is not None:
            payload["anytime"] = anytime_report.to_dict()
        if ranked is not None:
            payload["topk"] = {
                "k": config.top_k,
                "returned": len(ranked),
                "plans": [
                    {"cost": candidate.cost, "plan": candidate.sql_like()}
                    for candidate in ranked
                ],
            }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"query: {query.describe()}")
    print(f"algorithm: {args.algorithm}  ({elapsed * 1e3:.2f} ms)")
    if anytime_report is not None:
        gap = (
            "unbounded"
            if math.isinf(anytime_report.gap_bound)
            else f"{anytime_report.gap_bound:.4g}"
        )
        status = "completed" if anytime_report.completed else "budget exhausted"
        print(
            f"anytime: {status}, {anytime_report.nodes_spent} nodes spent, "
            f"gap bound {gap}"
        )
    print(f"plan: {plan.sql_like()}")
    print(f"cost: {plan.cost:.6g}")
    if ranked is not None:
        print(f"top-{config.top_k}: {len(ranked)} distinct plan(s)")
        for rank, candidate in enumerate(ranked):
            print(f"  #{rank + 1}: cost {candidate.cost:.6g}  {candidate.sql_like()}")
    print(plan.tree_string())
    memo = getattr(optimizer, "memo", None)
    if memo is not None and hasattr(memo, "summary") and memo.capacity is not None:
        s = memo.summary()
        print(
            f"memo: {s['policy']} policy, capacity {s['capacity']}, "
            f"{s['hits']} hits / {s['misses']} misses, "
            f"{s['evictions']} evictions, {s['demotions']} demotions, "
            f"{s['cold_hits']} cold hits"
        )
    if tracer is not None:
        print(f"trace: {span_count} spans -> {args.trace_out}")
    if profile_report is not None:
        print(
            f"profile: {len(profile_report['kernels'])} kernels -> "
            f"{args.profile_out}"
        )
    if args.metrics:
        print("\ncounters:")
        for key, value in sorted(metrics.as_dict().items()):
            if value:
                print(f"  {key}: {value}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Optimize under a recording tracer and show the recursion tree."""
    failure = _prepare_out_paths(args.out)
    if failure is not None:
        return failure
    query = _build_query(args)
    metrics = Metrics()
    tracer = RecordingTracer()
    registry = MetricsRegistry()
    optimizer = make_optimizer(
        args.algorithm, query, metrics=metrics, tracer=tracer, registry=registry
    )
    with Stopwatch() as stopwatch:
        plan = optimizer.optimize()
    print(f"query: {query.describe()}")
    print(
        f"algorithm: {args.algorithm}  ({stopwatch.elapsed_total * 1e3:.2f} ms, "
        f"{tracer.span_count()} spans)"
    )
    print(f"cost: {plan.cost:.6g}\n")
    print(render_trace_tree(tracer, query, max_depth=args.max_depth))
    print("\nsummary:")
    print(render_summary(metrics, registry))
    if args.out:
        try:
            count = write_jsonl(tracer, args.out)
        except OSError as exc:
            print(f"cannot write trace to {args.out!r}: {exc}", file=sys.stderr)
            return 2
        print(f"\ntrace: {count} spans -> {args.out}")
    return 0


def _cmd_profile_memo(args: argparse.Namespace) -> int:
    """Distill a traced run into a memo cost profile (``profile`` policy).

    Either replays an existing span-trace JSONL (``--from-trace``) or
    runs the optimizer under a recording tracer right here, then writes
    the per-expression exclusive recompute weights as JSON for a later
    ``repro optimize --algorithm TBNmc%profile:CELLS --memo-profile PATH``
    run.
    """
    from repro.cache.costing import CostProfile

    failure = _prepare_out_paths(args.out)
    if failure is not None:
        return failure
    if args.from_trace:
        try:
            profile = CostProfile.from_trace_file(args.from_trace, metric=args.metric)
        except (OSError, ValueError, KeyError) as exc:
            print(
                f"cannot build profile from {args.from_trace!r}: {exc}",
                file=sys.stderr,
            )
            return 2
        source = args.from_trace
    else:
        query = _build_query(args)
        tracer = RecordingTracer()
        optimizer = make_optimizer(
            args.algorithm, query, metrics=Metrics(), tracer=tracer
        )
        optimizer.optimize()
        profile = CostProfile.from_tracer(tracer, metric=args.metric)
        source = f"{args.algorithm} on {query.describe()}"
    try:
        profile.save(args.out)
    except OSError as exc:
        print(f"cannot write profile to {args.out!r}: {exc}", file=sys.stderr)
        return 2
    print(
        f"profile: {len(profile)} expressions ({args.metric} metric) "
        f"from {source} -> {args.out}"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Optimize under the kernel profiler; print/export the kernel table.

    Text output is the per-kernel summary (exclusive wall time, calls,
    deterministic op counts) plus the top-3 kernels' share of end-to-end
    wall time; ``--flamegraph-out`` writes collapsed-stack text for
    ``flamegraph.pl``/speedscope, ``--out`` the full report as JSON.
    """
    failure = _prepare_out_paths(args.flamegraph_out, args.out)
    if failure is not None:
        return failure
    query = _build_query(args)
    metrics = Metrics()
    profiler = RecordingProfiler()
    try:
        optimizer = make_optimizer(
            args.algorithm, query, metrics=metrics, profiler=profiler
        )
    except ValueError as exc:  # profiling needs a top-down name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with Stopwatch() as stopwatch:
        plan = optimizer.optimize()
    wall = stopwatch.elapsed_total
    kernels = _split_rule_list(args.kernels)
    report = profiler.report(wall)
    report["algorithm"] = args.algorithm
    report["query"] = query.describe()
    report["cost"] = plan.cost
    if kernels is not None:
        wanted = set(kernels)
        report["kernels"] = [
            row for row in report["kernels"] if row["kernel"] in wanted
        ]
    if args.flamegraph_out:
        try:
            with open(args.flamegraph_out, "w", encoding="utf-8") as handle:
                handle.write(profiler.collapsed() + "\n")
        except OSError as exc:
            print(
                f"cannot write flamegraph to {args.flamegraph_out!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"cannot write report to {args.out!r}: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"query: {query.describe()}")
    print(f"algorithm: {args.algorithm}  ({wall * 1e3:.2f} ms, cost {plan.cost:.6g})")
    print()
    print(render_kernel_table(profiler, kernels=kernels))
    top = report["kernels"][:3]
    if top and wall > 0:
        shares = ", ".join(
            f"{row['kernel']} {row.get('share_of_wall', 0.0) * 100:.1f}%"
            for row in top
        )
        total = sum(row.get("share_of_wall", 0.0) for row in top)
        print(f"\ntop-3 of wall: {shares}  (together {total * 100:.1f}%)")
    if args.flamegraph_out:
        print(f"flamegraph: {len(profiler.stacks)} stacks -> {args.flamegraph_out}")
    if args.out:
        print(f"report: -> {args.out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct bounding decisions from a trace, or diff two phases.

    Three sources, checked in order: ``--from-trace`` replays a JSONL
    span dump; ``--phases A,B,...`` runs a traced multiphase optimization
    and additionally prints the phase-2-vs-phase-1 subplan diff; plain
    ``--algorithm`` runs one traced optimization.  Output is the
    per-expression bounding ledger (budgets in, prunes, bound hits, memo
    tier hits) of ``docs/profiling.md``.
    """
    if args.from_trace:
        try:
            roots = read_jsonl(args.from_trace)
        except (OSError, ValueError, KeyError) as exc:
            print(
                f"cannot load trace {args.from_trace!r}: {exc}", file=sys.stderr
            )
            return 2
        ledger = bounding_ledger(roots)
        if args.json:
            print(json.dumps([entry.to_dict() for entry in ledger], indent=2))
        else:
            print(f"trace: {args.from_trace} ({len(ledger)} expressions)\n")
            print(render_ledger(ledger, limit=args.limit))
        return 0

    query = _build_query(args)
    if args.phases:
        from repro.multiphase import (
            explain_phases,
            optimize_multiphase,
            render_phase_diff,
        )

        names = [name.strip() for name in args.phases.split(",") if name.strip()]
        if len(names) < 2:
            print(
                "--phases needs at least two comma-separated algorithm names",
                file=sys.stderr,
            )
            return 2
        result = optimize_multiphase(query, names, trace=True)
        decisions = explain_phases(result, query)
        final_tracer = result.phases[-1].tracer
        assert final_tracer is not None  # trace=True above
        ledger = bounding_ledger(final_tracer)
        if args.json:
            payload = {
                "query": query.describe(),
                "phases": [
                    {"algorithm": phase.algorithm, "cost": phase.plan.cost}
                    for phase in result.phases
                ],
                "decisions": [decision.to_dict() for decision in decisions],
                "ledger": [entry.to_dict() for entry in ledger],
            }
            print(json.dumps(payload, indent=2))
            return 0
        print(f"query: {query.describe()}")
        for phase in result.phases:
            print(f"phase {phase.algorithm}: cost {phase.plan.cost:.6g}")
        print("\nphase diff (every phase-1 subplan):")
        print(render_phase_diff(decisions, limit=args.limit))
        print("\nbounding ledger (final phase):")
        print(render_ledger(ledger, query, limit=args.limit))
        return 0

    tracer = RecordingTracer()
    optimizer = make_optimizer(
        args.algorithm, query, metrics=Metrics(), tracer=tracer
    )
    plan = optimizer.optimize()
    ledger = bounding_ledger(tracer)
    if args.json:
        print(json.dumps([entry.to_dict() for entry in ledger], indent=2))
        return 0
    print(f"query: {query.describe()}")
    print(f"algorithm: {args.algorithm}  cost {plan.cost:.6g}\n")
    print(render_ledger(ledger, query, limit=args.limit))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Optimize a query, generate synthetic data, and execute the plan."""
    from repro.exec import ExecutionEngine, generate_database

    query = _build_query(args)
    plan = make_optimizer(args.algorithm, query).optimize()
    database = generate_database(
        query, rng=args.seed, max_rows=args.rows,
        min_rows=min(8, args.rows), max_domain=max(2, args.rows // 4),
    )
    engine = ExecutionEngine(database)
    rows = engine.execute(plan)
    print(f"query: {query.describe()}")
    print(f"plan ({args.algorithm}): {plan.sql_like()}  cost={plan.cost:,.0f}")
    for v in range(query.n):
        print(f"  {query.relations[v].name:<12} {database.row_count(v):>5} rows")
    print(f"result: {len(rows)} rows")
    for row in rows[: args.limit]:
        values = {k: v for k, v in sorted(row.items()) if k != "_rids"}
        print(f"  {values}")
    if len(rows) > args.limit:
        print(f"  ... ({len(rows) - args.limit} more)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id == "all":
        ids = list(EXPERIMENTS)
    else:
        if args.id not in EXPERIMENTS:
            print(
                f"unknown experiment {args.id!r}; choose from "
                f"{', '.join(EXPERIMENTS)} or 'all'",
                file=sys.stderr,
            )
            return 2
        ids = [args.id]
    for experiment_id in ids:
        with Stopwatch() as stopwatch:
            result = EXPERIMENTS[experiment_id](args.scale)
        elapsed = stopwatch.elapsed_total
        if args.json:
            print(result.to_json())
        else:
            print(result.render())
            print(f"[completed in {elapsed:.1f}s]\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run the conformance suite: canned battery, corpus replay, fuzzing.

    Exit status is 1 when any invariant is violated, 2 on bad arguments;
    see ``docs/conformance.md`` for what each invariant encodes.
    """
    from repro.conformance import fuzz as run_fuzz
    from repro.conformance import replay_corpus
    from repro.conformance.invariants import INVARIANTS, standard_battery
    from repro.workloads.skewed import PROFILES

    selected = tuple(args.invariant) if args.invariant else None
    if selected:
        unknown = [name for name in selected if name not in INVARIANTS]
        if unknown:
            print(
                f"unknown invariants {unknown}; choose from "
                f"{', '.join(sorted(INVARIANTS))}",
                file=sys.stderr,
            )
            return 2
    if args.fuzz < 0:
        print(f"--fuzz must be >= 0, got {args.fuzz}", file=sys.stderr)
        return 2
    profiles = tuple(args.profile) if args.profile else PROFILES
    unknown_profiles = [name for name in profiles if name not in PROFILES]
    if unknown_profiles:
        print(
            f"unknown profiles {unknown_profiles}; choose from "
            f"{', '.join(PROFILES)}",
            file=sys.stderr,
        )
        return 2

    report: dict[str, object] = {"seed": args.seed}
    violations = []

    battery = standard_battery(invariants=selected)
    violations.extend(battery)
    report["battery"] = {
        "invariants": sorted(selected or INVARIANTS),
        "violations": [v.to_dict() for v in battery],
    }

    if args.corpus:
        replayed = replay_corpus(args.corpus)
        violations.extend(replayed)
        report["corpus"] = {
            "directory": args.corpus,
            "violations": [v.to_dict() for v in replayed],
        }

    if args.fuzz:
        def progress(case):
            if not args.json and case.index and case.index % 50 == 0:
                print(f"fuzz: {case.index}/{args.fuzz} cases", file=sys.stderr)

        fuzz_report = run_fuzz(
            args.fuzz,
            seed=args.seed,
            invariants=selected,
            corpus_dir=args.reproducer_dir,
            on_case=progress,
            profiles=profiles,
        )
        report["fuzz"] = fuzz_report.to_dict()
        violations.extend(fuzz_report.violations)

    if args.json:
        report["ok"] = not violations
        print(json.dumps(report, indent=2))
    else:
        print(f"battery: {len(battery)} violation(s)")
        if args.corpus:
            print(f"corpus:  {len(report['corpus']['violations'])} violation(s)")
        if args.fuzz:
            print(
                f"fuzz:    {args.fuzz} case(s), seed {args.seed}, "
                f"{len(report['fuzz']['violations'])} violation(s)"
            )
        for violation in battery:
            print(f"  {violation}")
        if args.fuzz:
            for record in report["fuzz"]["violations"]:
                repro_graph = record["reproducer"]
                print(
                    f"  case {record['case']}: shrunk to n={repro_graph['n']} "
                    f"edges={repro_graph['edges']}"
                )
        print("verify: " + ("FAIL" if violations else "ok"))
    return 1 if violations else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis rules (docs/static-analysis.md).

    Exit status: 0 when no error-severity findings (warnings never fail
    the run), 1 on errors, 2 on bad arguments or unparseable input.
    """
    from repro.lint import (
        ALL_RULES,
        lint_paths,
        render_json,
        render_rules,
        render_sarif,
        render_text,
    )

    if args.list_rules:
        print(render_rules(ALL_RULES))
        return 0
    if not args.paths:
        print("lint: no paths given (try: repro lint src/)", file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not os.path.exists(path)]
    if args.program_root:
        missing += [p for p in args.program_root if not os.path.exists(p)]
    if missing:
        print(f"lint: no such path(s): {missing}", file=sys.stderr)
        return 2
    if args.call_graph:
        from repro.lint.engine import (
            ModuleSource,
            iter_python_files,
            module_name_for,
        )
        from repro.lint.flow import FlowProgram, render_call_graph

        roots = list(args.program_root or []) + list(args.paths)
        modules = []
        for file_path in iter_python_files(roots):
            with open(file_path, encoding="utf-8") as handle:
                source = handle.read()
            try:
                modules.append(
                    ModuleSource.parse(
                        source,
                        path=file_path,
                        module=module_name_for(file_path),
                    )
                )
            except SyntaxError as exc:
                print(
                    f"lint: cannot parse {file_path}: {exc}", file=sys.stderr
                )
                return 2
        print(render_call_graph(FlowProgram.build(modules)))
        return 0
    select = _split_rule_list(args.select)
    ignore = _split_rule_list(args.ignore)
    try:
        report = lint_paths(
            args.paths,
            select=select,
            ignore=ignore,
            program_paths=args.program_root or None,
        )
    except ValueError as exc:  # unknown rule in --select/--ignore
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"lint: cannot parse {exc.filename}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report, ALL_RULES))
    else:
        print(render_text(report))
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident plan service (docs/serving.md).

    Foreground mode binds ``--host``/``--port`` and serves until
    interrupted.  ``--once`` is the self-test: bind an ephemeral port,
    run the seeded three-phase load suite against ourselves, print the
    report, and exit non-zero on any failed request or any served plan
    that is not bit-identical to direct optimization.
    """
    import asyncio

    from repro.serve.load import build_workload, run_load
    from repro.serve.server import PlanServer

    def make_server(port: int) -> PlanServer:
        return PlanServer(
            args.host,
            port,
            algorithm=args.algorithm,
            batch_size=args.batch_size,
            dispatch_workers=args.dispatch_workers,
            max_inflight=args.max_inflight,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
        )

    if args.once:

        async def once() -> int:
            server = make_server(0)
            await server.start()
            host, port = server.address
            workload = build_workload(
                unique=args.unique,
                seed=args.seed,
                algorithm=args.algorithm,
                burst=args.dedup_burst,
            )
            report = await run_load(
                host, port, workload, concurrency=args.concurrency
            )
            await server.stop()
            payload = report.to_dict()
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(
                    f"serve --once: {report.requests} requests against "
                    f"{host}:{port} ({args.algorithm})"
                )
                print(
                    f"  ok={report.ok} failed={report.failed} "
                    f"mismatches={report.mismatches}"
                )
                print(
                    f"  hit_rate={report.hit_rate:.3f} "
                    f"dedup_saves={report.dedup_saves} "
                    f"p50={payload['latency_p50_ms']:.2f}ms "
                    f"p99={payload['latency_p99_ms']:.2f}ms "
                    f"plans/s={report.plans_per_sec:.1f}"
                )
            ok = report.ok > 0 and report.failed == 0 and report.mismatches == 0
            return 0 if ok else 1

        return asyncio.run(once())

    async def forever() -> int:
        server = make_server(args.port)
        await server.start()
        host, port = server.address
        print(
            f"serving on {host}:{port} (default algorithm "
            f"{args.algorithm}); Ctrl-C to stop"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()
        return 0

    try:
        return asyncio.run(forever())
    except KeyboardInterrupt:
        print("\nstopped")
        return 0


def _split_rule_list(values: list[str] | None) -> list[str] | None:
    """Flatten repeatable, comma-separated rule-name options."""
    if not values:
        return None
    names = []
    for value in values:
        names.extend(name.strip() for name in value.split(",") if name.strip())
    return names or None


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal top-down join enumeration (DeHaan & Tompa, SIGMOD 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-algorithms", help="show the algorithm registry")

    optimize = sub.add_parser("optimize", help="optimize a generated query")
    optimize.add_argument(
        "--algorithm", default="TBNmc",
        help="registry name with optional %%policy[:cap[:cold]] memo, "
             "?budget anytime and ^k ranking suffixes",
    )
    optimize.add_argument(
        "--topology",
        default="star",
        choices=["chain", "star", "cycle", "clique", "wheel",
                 "random-acyclic", "random-cyclic"],
    )
    optimize.add_argument("--n", type=int, default=8)
    optimize.add_argument("--seed", type=int, default=42)
    optimize.add_argument("--metrics", action="store_true")
    optimize.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON result (plan, cost, metrics)",
    )
    optimize.add_argument(
        "--trace-out", metavar="PATH",
        help="record the search as spans and write a JSONL dump to PATH",
    )
    optimize.add_argument(
        "--profile-out", metavar="PATH",
        help="run under the kernel profiler and write its report JSON to "
             "PATH (top-down algorithms only)",
    )
    optimize.add_argument(
        "--query",
        help="textual query DSL, e.g. 'a(1000) b(500) c(20); a-b:0.01' "
             "(overrides --topology/--n)",
    )
    optimize.add_argument(
        "--memo-profile", metavar="PATH",
        help="offline recompute weights from 'repro profile-memo' "
             "(used by a %%profile memo suffix)",
    )

    trace = sub.add_parser(
        "trace", help="optimize under a recording tracer, print the recursion tree"
    )
    trace.add_argument("--algorithm", default="TBNmc")
    trace.add_argument(
        "--topology",
        default="star",
        choices=["chain", "star", "cycle", "clique", "wheel",
                 "random-acyclic", "random-cyclic"],
    )
    trace.add_argument("--n", type=int, default=6)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument("--query", help="textual query DSL (overrides --topology)")
    trace.add_argument("--out", metavar="PATH", help="also write a JSONL span dump")
    trace.add_argument(
        "--max-depth", type=int, default=None,
        help="truncate the printed tree below this depth",
    )

    profile = sub.add_parser(
        "profile",
        help="attribute exclusive wall time to named kernels (docs/profiling.md)",
    )
    profile.add_argument("--algorithm", default="TBNmc")
    profile.add_argument(
        "--topology",
        default="star",
        choices=["chain", "star", "cycle", "clique", "wheel",
                 "random-acyclic", "random-cyclic"],
    )
    profile.add_argument("--n", type=int, default=10)
    profile.add_argument("--seed", type=int, default=42)
    profile.add_argument("--query", help="textual query DSL (overrides --topology)")
    profile.add_argument(
        "--kernels", action="append", metavar="KERNEL[,KERNEL...]",
        help="restrict the printed table to these kernels (repeatable, "
             "comma-separated; shares stay relative to the full total)",
    )
    profile.add_argument(
        "--flamegraph-out", metavar="PATH",
        help="write collapsed-stack text (kernel;kernel microseconds) for "
             "flamegraph.pl / speedscope",
    )
    profile.add_argument(
        "--out", metavar="PATH", help="write the full report as JSON to PATH"
    )
    profile.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of the table",
    )

    explain = sub.add_parser(
        "explain",
        help="per-expression bounding ledger and multiphase plan-decision diff",
    )
    explain.add_argument("--algorithm", default="TBNmcAP")
    explain.add_argument(
        "--topology",
        default="star",
        choices=["chain", "star", "cycle", "clique", "wheel",
                 "random-acyclic", "random-cyclic"],
    )
    explain.add_argument("--n", type=int, default=8)
    explain.add_argument("--seed", type=int, default=42)
    explain.add_argument("--query", help="textual query DSL (overrides --topology)")
    explain.add_argument(
        "--phases", metavar="A,B[,...]",
        help="run a traced multiphase optimization over these registry "
             "names and diff the final two phases (overrides --algorithm)",
    )
    explain.add_argument(
        "--from-trace", metavar="PATH",
        help="post-process an existing span-trace JSONL instead of running",
    )
    explain.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most N ledger/diff rows",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of tables",
    )

    profile_memo = sub.add_parser(
        "profile-memo",
        help="distill a traced run into per-expression memo recompute weights",
    )
    profile_memo.add_argument("--algorithm", default="TBNmc")
    profile_memo.add_argument(
        "--topology",
        default="star",
        choices=["chain", "star", "cycle", "clique", "wheel",
                 "random-acyclic", "random-cyclic"],
    )
    profile_memo.add_argument("--n", type=int, default=8)
    profile_memo.add_argument("--seed", type=int, default=42)
    profile_memo.add_argument("--query", help="textual query DSL (overrides --topology)")
    profile_memo.add_argument(
        "--from-trace", metavar="PATH",
        help="build from an existing span-trace JSONL instead of running",
    )
    profile_memo.add_argument(
        "--metric", default="work", choices=["work", "time"],
        help="weight metric: exclusive operation counters (deterministic, "
             "default) or exclusive wall microseconds",
    )
    profile_memo.add_argument(
        "--out", required=True, metavar="PATH",
        help="where to write the profile JSON",
    )

    run = sub.add_parser("run", help="optimize and execute on synthetic data")
    run.add_argument("--algorithm", default="TBNmc")
    run.add_argument(
        "--topology",
        default="star",
        choices=["chain", "star", "cycle", "clique", "wheel",
                 "random-acyclic", "random-cyclic"],
    )
    run.add_argument("--n", type=int, default=5)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--query", help="textual query DSL (overrides --topology)")
    run.add_argument("--rows", type=int, default=40, help="max rows per table")
    run.add_argument("--limit", type=int, default=5, help="result rows to print")

    experiment = sub.add_parser("experiment", help="regenerate a figure/table")
    experiment.add_argument("id", help="fig2..fig30, table2, or 'all'")
    experiment.add_argument("--scale", default="small", choices=["small", "paper"])
    experiment.add_argument("--json", action="store_true", help="emit JSON rows")

    verify = sub.add_parser(
        "verify",
        help="run the conformance invariants (docs/conformance.md)",
    )
    verify.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="additionally fuzz N seeded random graphs through the "
             "differential matrix (0 = battery only)",
    )
    verify.add_argument(
        "--invariant", action="append", metavar="NAME",
        help="restrict to one invariant (repeatable); default: all",
    )
    verify.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="master seed for the fuzz case generator",
    )
    verify.add_argument(
        "--profile", action="append", metavar="NAME",
        help="restrict fuzzing to one weight profile (repeatable); "
             "default: all (uniform, bimodal-selectivity, "
             "heavy-tail-cardinality)",
    )
    verify.add_argument(
        "--corpus", metavar="DIR",
        help="also replay every regression-corpus entry under DIR",
    )
    verify.add_argument(
        "--reproducer-dir", metavar="DIR",
        help="write shrunk fuzz reproducers into DIR for triage",
    )
    verify.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable report instead of text",
    )

    lint = sub.add_parser(
        "lint",
        help="repo-aware static analysis (docs/static-analysis.md)",
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (e.g. src/)",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json", "sarif"],
        help="report format (json/sarif are what CI archives)",
    )
    lint.add_argument(
        "--select", action="append", metavar="RULE[,RULE...]",
        help="run only these rules (repeatable, comma-separated; "
        "globs like 'flow-*' select rule families)",
    )
    lint.add_argument(
        "--ignore", action="append", metavar="RULE[,RULE...]",
        help="skip these rules (repeatable, comma-separated; globs ok)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--call-graph", action="store_true",
        help="dump the whole-program call graph instead of linting",
    )
    lint.add_argument(
        "--program-root", action="append", metavar="PATH",
        help="build the whole-program flow analysis from PATH(s) while "
        "reporting only on the linted paths (pre-commit fast path)",
    )

    serve = sub.add_parser(
        "serve",
        help="resident plan service over NDJSON/TCP (docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7411, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--algorithm", default="TBNmc",
        help="default algorithm for requests that do not name one",
    )
    serve.add_argument(
        "--batch-size", type=int, default=4, metavar="N",
        help="max queued requests one dispatch worker takes per batch",
    )
    serve.add_argument(
        "--dispatch-workers", type=int, default=2, metavar="N",
        help="concurrent optimizer worker threads",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="admission control: max concurrently admitted requests",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=None, metavar="RPS",
        help="per-tenant token-bucket refill rate (default: no quotas)",
    )
    serve.add_argument(
        "--tenant-burst", type=float, default=8.0, metavar="N",
        help="per-tenant token-bucket capacity",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="self-test: serve an ephemeral port, run the seeded load "
             "suite against it, report, and exit",
    )
    serve.add_argument(
        "--unique", type=int, default=10, metavar="N",
        help="unique queries in the --once suite",
    )
    serve.add_argument(
        "--dedup-burst", type=int, default=4, metavar="K",
        help="pipelined identical requests in the --once dedup phase",
    )
    serve.add_argument(
        "--concurrency", type=int, default=4, metavar="N",
        help="concurrent client connections in the --once flood phase",
    )
    serve.add_argument("--seed", type=int, default=1234)
    serve.add_argument(
        "--json", action="store_true",
        help="emit the --once report as machine-readable JSON",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    algorithm = getattr(args, "algorithm", None)
    if algorithm is not None:
        try:
            OptimizerConfig.parse(algorithm)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handlers = {
        "list-algorithms": _cmd_list_algorithms,
        "optimize": _cmd_optimize,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "explain": _cmd_explain,
        "profile-memo": _cmd_profile_memo,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
