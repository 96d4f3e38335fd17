"""Command-line interface: ``repro-join`` / ``python -m repro``.

Subcommands
-----------
``quickstart``
    Two-minute demo: generate documents, join them, print pairs.
``join``
    Time a local join algorithm (FPJ / NLJ / HBJ) over generated data.
``topology``
    Run the full Fig. 2 topology and print per-window metrics.
``figure``
    Regenerate one of the paper's figures (fig6 ... fig11) as a table.
``analyze``
    The intro's security scenario: generate, join, score suspicion.
``report``
    Render the persisted benchmark results into a markdown report.
``ingest``
    Stream a JSONL file through the topology, printing per-window metrics.
``generate``
    Write a generated dataset to a JSONL file.
``stats``
    Run an observability-enabled topology and print (or dump as JSON)
    the recorded metric series: per-component tuple counts, executor
    latency histograms, per-machine replication counters, spans.
``soak``
    Long-running session mode: ramp offered load over an unbounded
    adversarial workload until the topology saturates, then report
    sustained docs/sec, p50/p99 end-to-end latency, and whether memory
    stayed bounded and metrics stayed monotonic (``docs/soak.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.data.loader import write_jsonl
from repro.experiments import figures as fig
from repro.experiments.config import ExperimentConfig, make_generator
from repro.experiments.runner import run_experiment, save_rows
from repro.experiments.timing import fig11_join_times, time_join
from repro.metrics.report import format_table

def _workers_argument(value: str):
    """``--workers`` value: a count, or comma-separated host:port list."""
    text = value.strip()
    if ":" in text or "," in text:
        addresses = tuple(part.strip() for part in text.split(",") if part.strip())
        if not addresses:
            raise argparse.ArgumentTypeError("empty worker address list")
        return addresses
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--workers takes a count or host:port addresses, got {value!r}"
        ) from None


def _elastic_argument(value: str):
    """``--elastic`` value: ``min:max`` pool bounds -> an ElasticPolicy."""
    from repro.exceptions import TopologyError
    from repro.streaming.elastic import ElasticPolicy

    low, separator, high = value.strip().partition(":")
    try:
        if not separator:
            raise ValueError(value)
        return ElasticPolicy(min_workers=int(low), max_workers=int(high))
    except (ValueError, TopologyError) as exc:
        raise argparse.ArgumentTypeError(
            f"--elastic takes MIN:MAX worker-pool bounds "
            f"(e.g. 2:8), got {value!r}: {exc}"
        ) from None


def _add_backend_arguments(parser: argparse.ArgumentParser, help_suffix: str) -> None:
    parser.add_argument(
        "--backend", choices=("local", "parallel"), default="local",
        help=f"execution backend: {help_suffix}",
    )
    parser.add_argument(
        "--transport", choices=("pipe", "socket"), default="pipe",
        help="worker transport for --backend parallel: forked processes "
             "over a socketpair, or python -m repro.worker subprocesses "
             "over TCP",
    )
    parser.add_argument(
        "--workers", type=_workers_argument, default=None,
        help="worker count for --backend parallel (default: one per core), "
             "or a comma-separated host:port list with --transport socket "
             "(tcp://host:port attaches to a pre-started worker)",
    )
    parser.add_argument(
        "--elastic", type=_elastic_argument, nargs="?", const="1:8",
        default=None, metavar="MIN:MAX",
        help="elastic worker pool for --backend parallel: scale up/down "
             "and live-migrate hot partitions at window barriers, bounded "
             "by MIN:MAX workers (bare --elastic means 1:8; see "
             "docs/elasticity.md)",
    )


FIGURES = {
    "fig6": ("Fig. 6 — replication (avg)", fig.fig06_replication),
    "fig7": ("Fig. 7 — load balance (Gini)", fig.fig07_load_balance),
    "fig8": ("Fig. 8 — maximal processing load", fig.fig08_max_load),
    "fig9": ("Fig. 9 — repartitions (%)", fig.fig09_repartitions),
    "fig10": ("Fig. 10 — ideal execution", fig.fig10_ideal_execution),
    "fig11": ("Fig. 11 — local join execution time", fig11_join_times),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-join",
        description="Schema-free stream joins: AG partitioning + FP-tree join",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="run the two-minute demo")

    join = sub.add_parser("join", help="time a local join algorithm")
    join.add_argument("--algorithm", choices=("FPJ", "NLJ", "HBJ"), default="FPJ")
    join.add_argument("--dataset", choices=("rwData", "nbData"), default="rwData")
    join.add_argument("--docs", type=int, default=10_000)
    join.add_argument("--seed", type=int, default=7)

    topo = sub.add_parser("topology", help="run the full stream-join topology")
    topo.add_argument("--dataset", choices=("rwData", "nbData", "idealData"), default="rwData")
    topo.add_argument(
        "--algorithm", choices=("AG", "SC", "DS", "HASH", "KL"), default="AG"
    )
    topo.add_argument("-m", "--machines", type=int, default=8)
    topo.add_argument("--windows", type=int, default=8)
    topo.add_argument("-w", "--window-minutes", type=int, default=6)
    topo.add_argument("--theta", type=float, default=0.2)
    topo.add_argument("--delta", type=int, default=3)
    topo.add_argument("--seed", type=int, default=7)
    topo.add_argument("--joins", action="store_true", help="also compute the joins")
    _add_backend_arguments(
        topo, "inline single-process or Joiners in worker processes"
    )
    topo.add_argument(
        "--max-retries", type=int, default=0,
        help="redeliveries of a failing tuple before it counts as poisoned",
    )
    topo.add_argument(
        "--dead-letters", action="store_true",
        help="quarantine poisoned tuples instead of aborting the run",
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name", choices=sorted(FIGURES) + ["all"])
    figure.add_argument("--save", action="store_true", help="write rows to results/")

    analyze = sub.add_parser(
        "analyze", help="run the security-analysis scenario end-to-end"
    )
    analyze.add_argument("--docs", type=int, default=2000)
    analyze.add_argument("--windows", type=int, default=4)
    analyze.add_argument("-m", "--machines", type=int, default=4)
    analyze.add_argument("--seed", type=int, default=7)

    report = sub.add_parser("report", help="render results/ into a markdown report")
    report.add_argument("--results", default="results")
    report.add_argument("--out", default=None)

    ingest = sub.add_parser(
        "ingest", help="stream a JSONL file through the join topology"
    )
    ingest.add_argument("path")
    ingest.add_argument("-m", "--machines", type=int, default=4)
    ingest.add_argument("--window-size", type=int, default=1000)
    ingest.add_argument("--algorithm", choices=("AG", "SC", "DS", "HASH", "KL"),
                        default="AG")
    ingest.add_argument("--joins", action="store_true", help="also compute joins")
    _add_backend_arguments(ingest, "the session's cluster")
    ingest.add_argument(
        "--max-retries", type=int, default=0,
        help="redeliveries of a failing tuple before it counts as poisoned",
    )
    ingest.add_argument(
        "--dead-letters", action="store_true",
        help="quarantine poisoned tuples instead of aborting the run",
    )

    gen = sub.add_parser("generate", help="write a dataset to JSONL")
    gen.add_argument("--dataset", choices=("rwData", "nbData"), default="rwData")
    gen.add_argument("--docs", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True)

    stats = sub.add_parser(
        "stats", help="run an instrumented topology and print its metrics"
    )
    stats.add_argument(
        "--dataset", choices=("rwData", "nbData", "idealData"), default="rwData"
    )
    stats.add_argument("--docs", type=int, default=600)
    stats.add_argument("--windows", type=int, default=3)
    stats.add_argument("-m", "--machines", type=int, default=4)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument(
        "--json", action="store_true", help="dump the snapshot as JSON"
    )
    stats.add_argument("--out", default=None, help="write the output to a file")
    _add_backend_arguments(stats, "parallel merges per-worker snapshots")

    soak = sub.add_parser(
        "soak", help="rate-ramped long-running session (see docs/soak.md)"
    )
    soak.add_argument(
        "--workload", choices=("zipf", "drift", "late", "burst"),
        default="zipf",
        help="adversarial workload from the zoo (repro.data.zoo)",
    )
    soak.add_argument("--seed", type=int, default=7)
    soak.add_argument("-m", "--machines", type=int, default=8)
    soak.add_argument(
        "--algorithm", choices=("AG", "SC", "DS", "HASH", "KL"), default="AG"
    )
    soak.add_argument(
        "--initial-rate", type=float, default=500.0,
        help="offered docs/sec of the first epoch (doubles while the "
             "topology keeps up)",
    )
    soak.add_argument(
        "--window-seconds", type=float, default=0.5,
        help="simulated span of one window; window size in documents is "
             "offered-rate x this",
    )
    soak.add_argument(
        "--epoch-windows", type=int, default=4,
        help="windows per ramp epoch (one RSS/metric sample per epoch)",
    )
    soak.add_argument(
        "--max-seconds", type=float, default=None,
        help="wall-clock cap on the whole run",
    )
    soak.add_argument(
        "--max-windows", type=int, default=None,
        help="stop after this many windows",
    )
    soak.add_argument(
        "--run-past-saturation", action="store_true",
        help="keep offering the final rate after saturation instead of "
             "stopping (needs --max-seconds or --max-windows)",
    )
    soak.add_argument(
        "--assert-memory", action="store_true",
        help="exit nonzero if the bounded-memory check fails (metric "
             "monotonicity is always asserted)",
    )
    soak.add_argument(
        "--json", action="store_true", help="dump the report as JSON"
    )
    soak.add_argument("--out", default=None, help="write the report to a file")
    _add_backend_arguments(soak, "the soak session's cluster")
    return parser


def _cmd_quickstart() -> int:
    from repro import Document, FPTreeJoiner, join_window

    docs = [
        Document({"User": "A", "Severity": "Warning"}, doc_id=1),
        Document({"User": "A", "Severity": "Warning", "MsgId": 2}, doc_id=2),
        Document({"User": "A", "Severity": "Error"}, doc_id=3),
        Document({"IP": "10.2.145.212", "Severity": "Warning"}, doc_id=4),
        Document({"User": "B", "Severity": "Critical", "MsgId": 1}, doc_id=5),
        Document({"User": "B", "Severity": "Critical"}, doc_id=6),
        Document({"User": "B", "Severity": "Warning"}, doc_id=7),
    ]
    pairs = join_window(FPTreeJoiner(), docs)
    print("documents from the paper's Fig. 1; joinable pairs:")
    for left, right in sorted(pairs):
        print(f"  d{left} ⋈ d{right}")
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    generator = make_generator(args.dataset, args.seed, args.docs)
    documents = generator.documents(args.docs)
    timing = time_join(args.algorithm, args.dataset, documents)
    print(format_table([timing.row()], (
        "algorithm", "dataset", "documents", "creation_s", "join_s",
        "total_s", "join_pairs",
    )))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        dataset=args.dataset,
        algorithm=args.algorithm,
        m=args.machines,
        w=args.window_minutes,
        theta=args.theta,
        delta=args.delta,
        n_windows=args.windows,
        seed=args.seed,
        compute_joins=args.joins,
        backend=args.backend,
        transport=args.transport,
        workers=args.workers,
        elastic=args.elastic,
        max_retries=args.max_retries,
        dead_letters=args.dead_letters,
    )
    result = run_experiment(config, use_cache=False)
    rows = [
        {
            "window": w.window,
            "documents": w.documents,
            "replication": w.replication,
            "gini": w.gini,
            "max_load": w.max_load,
            "broadcast": w.broadcast_fraction,
            "repartitioned": w.repartitioned,
            "join_pairs": w.join_pairs,
        }
        for w in result.stream_result.per_window
    ]
    print(format_table(rows, (
        "window", "documents", "replication", "gini", "max_load",
        "broadcast", "repartitioned", "join_pairs",
    )))
    summary = result.summary
    print(
        f"\nsummary (bootstrap window excluded): replication={summary.replication:.3f} "
        f"gini={summary.gini:.3f} max_load={summary.max_load:.3f} "
        f"repartition_rate={summary.repartition_rate:.0%}"
    )
    _print_dead_letters(result.stream_result)
    return 0


def _print_dead_letters(result) -> None:
    """Summarize quarantined tuples on stderr-adjacent output, if any."""
    total = result.tuple_stats.get("dead_letters", 0)
    if not total:
        return
    print(f"\n{total} tuple(s) quarantined (dead letters):")
    for letter in result.dead_letters[:5]:
        where = f"{letter.component}[{letter.task_index}]"
        if letter.worker is not None:
            where += f" on worker {letter.worker}"
        print(f"  {where} stream={letter.stream} after "
              f"{letter.attempts + 1} attempt(s): {letter.cause}")
    if total > len(result.dead_letters[:5]):
        print(f"  ... and {total - len(result.dead_letters[:5])} more")


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "all":
        for name in sorted(FIGURES):
            _print_one_figure(name, args.save)
            print()
        return 0
    _print_one_figure(args.name, args.save)
    return 0


def _print_one_figure(name: str, save: bool) -> None:
    title, producer = FIGURES[name]
    rows = producer()
    if name == "fig11":
        print(title)
        print(format_table(rows, (
            "panel", "algorithm", "documents", "creation_s", "join_s", "total_s",
        )))
    else:
        fig.print_figure(rows, title)
    if save:
        target = save_rows(name, rows)
        print(f"\nrows written to {target}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro import StreamJoinConfig, run_stream_join
    from repro.analysis import SuspicionScorer, complement_statistics
    from repro.data.serverlogs import ServerLogGenerator

    generator = ServerLogGenerator(seed=args.seed)
    window_size = max(1, args.docs // args.windows)
    windows = [generator.next_window(window_size) for _ in range(args.windows)]
    by_id = {d.doc_id: d for w in windows for d in w}
    result = run_stream_join(
        StreamJoinConfig(
            m=args.machines, algorithm="AG", n_assigners=2,
            compute_joins=True, collect_pairs=True,
        ),
        windows,
    )
    scorer = SuspicionScorer()
    scorer.observe_joins(result.join_pairs, by_id)
    print(f"{len(by_id)} documents, {len(result.join_pairs)} joined pairs\n")
    print("suspicious users:")
    for alert in scorer.user_alerts(top=8):
        print(f"  {alert.entity}: score {alert.score} ({', '.join(alert.reasons)})")
    print("\nlocations with concentrated failures:")
    for alert in scorer.location_alerts(minimum_failures=2)[:5]:
        print(f"  {alert.entity}: {alert.score}")
    gained = complement_statistics(result.join_pairs, by_id)
    top = ", ".join(f"{a} (+{n})" for a, n in gained.most_common(5))
    print(f"\nattributes gained through joins: {top}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro import CountWindow, StreamJoinConfig, StreamJoinSession
    from repro.data.loader import read_jsonl

    session = StreamJoinSession(
        StreamJoinConfig(
            m=args.machines, algorithm=args.algorithm,
            compute_joins=args.joins, backend=args.backend,
            transport=args.transport, workers=args.workers,
            elastic=args.elastic,
            max_retries=args.max_retries, dead_letters=args.dead_letters,
        )
    )
    window_frame = CountWindow(args.window_size)
    total = 0
    for window in window_frame.iter_windows(read_jsonl(args.path)):
        metrics = session.push_window(window)
        total += len(window)
        if metrics is None:
            # pipelined parallel backend: the window is still in flight;
            # its metrics surface with a later push or the final result
            continue
        print(
            f"window {metrics.window}: {metrics.documents} docs, "
            f"replication {metrics.replication:.2f}, "
            f"max load {metrics.max_load:.2f}, "
            f"join pairs {metrics.join_pairs}"
        )
    if total == 0:
        print("no documents found")
        return 1
    final = session.result()
    summary = final.summary()
    print(
        f"\n{total} documents total; replication {summary.replication:.3f}, "
        f"gini {summary.gini:.3f}, max load {summary.max_load:.3f}"
    )
    _print_dead_letters(final)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = make_generator(args.dataset, args.seed, args.docs)
    count = write_jsonl(args.out, generator.documents(args.docs))
    print(f"wrote {count} documents to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import run

    window_size = max(1, args.docs // args.windows)
    generator = make_generator(args.dataset, args.seed, window_size)
    windows = generator.windows(args.windows, window_size)
    result = run(
        windows=windows,
        m=args.machines,
        compute_joins=True,
        observability=True,
        backend=args.backend,
        transport=args.transport,
        workers=args.workers,
        elastic=args.elastic,
    )
    snapshot = result.observability
    assert snapshot is not None
    if args.json:
        text = snapshot.to_json()
    else:
        lines = ["counters:"]
        for name, value in snapshot.counters.items():
            lines.append(f"  {name} = {value}")
        lines.append("gauges:")
        for name, value in snapshot.gauges.items():
            lines.append(f"  {name} = {value:g}")
        lines.append("histograms:")
        for name, data in snapshot.histograms.items():
            lines.append(
                f"  {name}: count={data['count']} mean={data['mean']:.3g} "
                f"max={data['max'] if data['max'] is not None else '-'}"
            )
        lines.append(f"spans: {len(snapshot.spans)} recorded")
        for span in snapshot.spans[:10]:
            lines.append(
                f"  {span['name']} {span['duration_seconds']:.4f}s "
                f"{span['attributes']}"
            )
        text = "\n".join(lines)
    if args.out:
        from pathlib import Path

        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text + "\n", encoding="utf-8")
        print(f"stats written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.soak import SoakConfig, run_soak

    if args.run_past_saturation and (
        args.max_seconds is None and args.max_windows is None
    ):
        print(
            "--run-past-saturation needs --max-seconds or --max-windows",
            file=sys.stderr,
        )
        return 2
    config = SoakConfig(
        workload=args.workload,
        seed=args.seed,
        m=args.machines,
        algorithm=args.algorithm,
        backend=args.backend,
        transport=args.transport,
        workers=args.workers,
        elastic=args.elastic,
        initial_rate=args.initial_rate,
        window_seconds=args.window_seconds,
        epoch_windows=args.epoch_windows,
        max_seconds=args.max_seconds,
        max_windows=args.max_windows,
        stop_at_saturation=not args.run_past_saturation,
    )
    report = run_soak(config)
    if args.json:
        import json

        text = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    else:
        fmt_ms = lambda s: f"{s * 1000:.1f} ms" if s is not None else "-"
        memory = report.memory
        lines = [
            f"workload={config.workload} backend={config.backend}"
            + (f"/{config.transport}" if config.backend == "parallel" else ""),
            f"stopped: {report.stop_reason} after {report.windows} windows, "
            f"{report.documents} documents, {report.elapsed_seconds:.1f}s",
            f"sustained throughput: {report.sustained_docs_per_sec:,.0f} docs/sec"
            + (" (saturated)" if report.saturated else " (ramp not exhausted)"),
            f"e2e latency: p50={fmt_ms(report.p50_s)} p99={fmt_ms(report.p99_s)}",
            "memory: "
            + (
                "sampling unavailable"
                if memory is None or memory.skipped
                else (
                    f"{'bounded' if memory.ok else 'UNBOUNDED'} "
                    f"(peak {memory.peak_bytes / 1e6:.0f} MB, "
                    f"allowed {memory.allowed_bytes / 1e6:.0f} MB)"
                )
            ),
            f"metrics monotonic: {'yes' if report.obs_monotonic else 'NO'}",
        ]
        if report.dead_letters or report.worker_restarts or report.degraded_workers:
            lines.append(
                f"faults: dead_letters={report.dead_letters} "
                f"worker_restarts={report.worker_restarts} "
                f"degraded_workers={report.degraded_workers}"
            )
        if report.scale_ups or report.scale_downs or report.migrations:
            lines.append(
                f"elastic: scale_ups={report.scale_ups} "
                f"scale_downs={report.scale_downs} "
                f"migrations={report.migrations}"
            )
        text = "\n".join(lines)
    if args.out:
        from pathlib import Path

        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text + "\n", encoding="utf-8")
        print(f"soak report written to {args.out}")
    else:
        print(text)
    if not report.obs_monotonic:
        for violation in report.obs_violations:
            print(f"monotonicity violation: {violation}", file=sys.stderr)
        return 1
    if args.assert_memory and not report.memory_ok:
        print(f"memory check failed: {report.memory.reason}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-join`` / ``python -m repro``."""
    args = _build_parser().parse_args(argv)
    if args.command == "quickstart":
        return _cmd_quickstart()
    if args.command == "join":
        return _cmd_join(args)
    if args.command == "topology":
        return _cmd_topology(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "report":
        from repro.experiments.report import generate_report

        text = generate_report(results_dir=args.results, out_path=args.out)
        if args.out:
            print(f"report written to {args.out}")
        else:
            print(text)
        return 0
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "soak":
        return _cmd_soak(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
