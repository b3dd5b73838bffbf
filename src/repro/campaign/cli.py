"""``python -m repro`` - the unified campaign command line.

Drives every experiment through the campaign layer, so
runs are cached, resumable and scriptable:

.. code-block:: text

    python -m repro run --list               # the experiment menu
    python -m repro run fig6 --fast          # figure 6, quick budget
    python -m repro run table1 --processes 1 # table 1 (serial timing)
    python -m repro run fig5 table2          # several experiments
    python -m repro run mui --fast           # multi-user interference
    python -m repro run ablations --full     # paper-scale budgets
    python -m repro cache ls                 # stored results
    python -m repro cache clear              # drop stored results
    python -m repro cache gc --max-bytes N   # evict oldest entries
    python -m repro cache merge SRC          # union another cache in
    python -m repro report                   # re-print saved reports
    python -m repro trace fig6 --fast        # span tree of one run
    python -m repro stats                    # aggregate store stats

The experiments are the rows of :data:`repro.experiments.EXPERIMENTS`
(name -> adapter, description), in menu order.  Common flags:
``--fast`` (default) / ``--full`` select the Monte-Carlo budget,
``--processes`` fans scenarios out over a process pool, ``--seed``
overrides the experiment's default seed, ``--chunk-bits`` sizes the
Monte-Carlo chunks, and ``--cache-dir`` / ``--no-cache`` control the
result store.
Re-running a completed campaign executes zero scenarios; a killed
or interrupted ``repro run`` resumes from its checkpoints when run
again.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.campaign.store import ResultStore
from repro.core.serialization import dump_tagged
from repro.obs import metrics, trace
from repro.obs.export import TraceReport, format_bytes, render_trace


def _positive_int(text: str) -> int:
    """argparse type for flags that only make sense strictly positive
    (e.g. ``--chunk-bits``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _non_negative(kind: type):
    """argparse type for limits that make no sense negative (e.g.
    ``--max-age``, ``--seed``); *kind* is ``int`` or ``float``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not value >= 0:  # also rejects NaN
            raise argparse.ArgumentTypeError(
                f"expected a non-negative {kind.__name__}, got {text!r}")
        return value

    return parse


def _known_experiments(names) -> dict | None:
    """The experiment table when every name in *names* is in it;
    otherwise print the unknown ones and return ``None`` (the caller
    exits with status 2).  Imported here so ``cache`` commands stay
    import-light."""
    from repro.experiments import EXPERIMENTS as experiments

    unknown = sorted(set(names) - set(experiments))
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(choose from {', '.join(experiments)})")
        return None
    return experiments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Campaign runner for the DATE'07 UWB reproduction: "
                    "cached, resumable experiment harnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run experiment campaigns through the result store")
    # No choices= here: the table is imported lazily; unknown
    # names are validated in cmd_run (and --list needs no names).
    run_p.add_argument("experiments", nargs="*", metavar="experiment",
                       help="registered experiment names "
                            "(see --list)")
    run_p.add_argument("--list", action="store_true", dest="list_only",
                       help="list registered experiments and exit")
    _add_budget_flags(run_p)
    _add_cache_flags(run_p)
    run_p.add_argument("--no-cache", action="store_true",
                       help="bypass the result store entirely")

    lint_p = sub.add_parser(
        "lint", help="static netlist verification (graph-based "
                     "pre-flight checks)")
    lint_p.add_argument("targets", nargs="*", metavar="netlist",
                        help="Spice netlist file path or built-in "
                             "circuit name (see --list)")
    lint_p.add_argument("--list", action="store_true", dest="list_only",
                        help="list built-in circuits and lint rules, "
                             "then exit")
    lint_p.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report format (json round-trips through "
                             "LintReport.from_json)")
    lint_p.add_argument("--fail-on", choices=("error", "warn", "info"),
                        default="error", dest="fail_on",
                        help="exit non-zero when findings at or above "
                             "this severity exist (default: error)")
    lint_p.add_argument("--no-title-line", action="store_true",
                        help="treat the first netlist line as content, "
                             "not a title")

    cache_p = sub.add_parser("cache", help="inspect the result store")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    ls_p = cache_sub.add_parser("ls", help="list stored results")
    _add_cache_flags(ls_p)
    clear_p = cache_sub.add_parser("clear", help="delete stored results")
    _add_cache_flags(clear_p)
    gc_p = cache_sub.add_parser(
        "gc", help="evict stored results by total size and/or age")
    _add_cache_flags(gc_p)
    gc_p.add_argument("--max-bytes", type=_non_negative(int),
                      default=None, metavar="N",
                      help="evict oldest entries until the store is "
                           "at most N bytes")
    gc_p.add_argument("--max-age", type=_non_negative(float),
                      default=None, metavar="S",
                      help="evict entries created more than S seconds "
                           "ago")
    merge_p = cache_sub.add_parser(
        "merge", help="union another store's results into this one "
                      "(newest wins per key)")
    merge_p.add_argument("source", metavar="SRC",
                         help="source store directory")
    _add_cache_flags(merge_p)

    report_p = sub.add_parser(
        "report", help="print the saved report of past runs")
    report_p.add_argument("experiments", nargs="*", metavar="experiment",
                          help="limit to these experiments (default: all)")
    _add_cache_flags(report_p)

    trace_p = sub.add_parser(
        "trace", help="run one experiment with hierarchical tracing "
                      "and print its span tree (repro.obs)")
    trace_p.add_argument("experiment", metavar="experiment",
                         help="registered experiment name (see "
                              "`repro run --list`)")
    trace_p.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="span-tree format (json round-trips "
                              "through repro.obs.export.TraceReport)")
    _add_budget_flags(trace_p)

    stats_p = sub.add_parser(
        "stats", help="aggregate metrics over a result store")
    stats_p.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="output format (json is a tagged "
                              "repro.stats/2 document)")
    _add_cache_flags(stats_p)
    return parser


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """Execution knobs shared by ``run`` and ``trace``."""
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--fast", action="store_true", default=True,
                        help="quick Monte-Carlo budgets (default)")
    budget.add_argument("--full", action="store_true",
                        help="paper-scale Monte-Carlo budgets")
    parser.add_argument("--processes", type=_non_negative(int),
                        default=None, metavar="N",
                        help="fan scenarios out over N processes "
                             "(0 or 1: serial)")
    parser.add_argument("--seed", type=_non_negative(int), default=None,
                        help="override the experiment's default seed")
    parser.add_argument("--chunk-bits", type=_positive_int, default=None,
                        metavar="N",
                        help="Monte-Carlo chunk size (bits per "
                             "vectorized chunk; default: the BER "
                             "op's native size)")


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-store directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")


def cmd_list() -> int:
    from repro.experiments import EXPERIMENTS

    print("registered experiments:")
    for name, (_fn, description) in EXPERIMENTS.items():
        print(f"  {name:<12s} {description}")
    print(f"{len(EXPERIMENTS)} experiments "
          "(run with: python -m repro run <name>)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.list_only:
        return cmd_list()
    if not args.experiments:
        print("no experiments given (try: python -m repro run --list)")
        return 2
    experiments = _known_experiments(args.experiments)
    if experiments is None:
        return 2
    from repro.experiments.context import ExperimentContext

    store = (None if getattr(args, "no_cache", False)
             else ResultStore(args.cache_dir))
    for name in args.experiments:
        ctx = ExperimentContext(full=args.full,
                                processes=args.processes,
                                seed=args.seed, store=store,
                                chunk_bits=args.chunk_bits)
        start = time.perf_counter()
        text = experiments[name][0](ctx)
        elapsed = time.perf_counter() - start
        print(text)
        if store is not None:
            print(f"campaign[{name}]: executed={store.misses} "
                  f"cached={store.hits} wall={elapsed:.3f}s "
                  f"cache={store.root}")
            store.save_report(name, text)
            # Per-experiment accounting when several run in one call.
            store.hits = store.misses = 0
        else:
            print(f"campaign[{name}]: uncached wall={elapsed:.3f}s")
        print()
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: parse/build each target, run the rule engine,
    exit 0 (clean below --fail-on), 1 (findings at/above --fail-on) or
    2 (unknown target / parse failure)."""
    # Imported here, like the experiment table: the lint stack loads
    # the circuit simulator, which no other command needs.
    from repro.circuits import builtin_circuits
    from repro.spice.errors import ParseError
    from repro.spice.lint.engine import lint_circuit, lint_netlist, lint_subckt
    from repro.spice.lint.report import Severity
    from repro.spice.lint.rules import RULES
    from repro.spice.netlist import Subckt

    builtins = builtin_circuits()
    if args.list_only:
        print("built-in circuits:")
        for name in builtins:
            print(f"  {name}")
        print("lint rules:")
        for rule in RULES:
            print(f"  {rule.rule_id:<14s} [{rule.severity.label:<5s}] "
                  f"{rule.title}")
        return 0
    if not args.targets:
        print("no netlists given (try: python -m repro lint --list)")
        return 2

    threshold = Severity.from_label(args.fail_on)
    failed = False
    for target in args.targets:
        try:
            if target in builtins:
                built = builtins[target]()
                if isinstance(built, Subckt):
                    report = lint_subckt(built)
                else:
                    report = lint_circuit(built)
            elif os.path.exists(target):
                with open(target, encoding="utf-8") as fh:
                    text = fh.read()
                report = lint_netlist(
                    text, title_line=not args.no_title_line)
            else:
                print(f"unknown target {target!r}: not a file and not a "
                      f"built-in circuit (choose from "
                      f"{', '.join(builtins)})")
                return 2
        except ParseError as exc:
            print(f"{target}: parse error: {exc}")
            return 2
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.format_text())
        if report.at_least(threshold):
            failed = True
    return 1 if failed else 0


def cmd_cache(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    if args.cache_command == "clear":
        removed, freed = store.clear()
        print(f"removed {removed} stored results "
              f"({format_bytes(freed)}) from {store.root}")
        return 0
    if args.cache_command == "gc":
        return _cache_gc(store, args)
    if args.cache_command == "merge":
        return _cache_merge(store, args)
    entries = store.entries()
    if not entries:
        print(f"(result store at {store.root} is empty)")
        return 0
    print(f"{'key':<14s} {'scenario':<28s} {'wall':>9s} "
          f"{'size':>9s}  fn")
    total = 0
    for e in sorted(entries, key=lambda e: e.created):
        total += e.size_bytes
        print(f"{e.key[:12] + '..':<14s} {e.name:<28.28s} "
              f"{e.wall_time:>8.3f}s {e.size_bytes / 1024:>8.1f}K"
              f"  {e.fn}")
    print(f"{len(entries)} results, {format_bytes(total)} total, "
          f"root {store.root}")
    return 0


def _cache_gc(store, args: argparse.Namespace) -> int:
    if args.max_bytes is None and args.max_age is None:
        print("nothing to do: give --max-bytes and/or --max-age")
        return 2
    evicted, freed = store.gc(max_bytes=args.max_bytes,
                              max_age=args.max_age)
    print(f"evicted {evicted} stored results "
          f"({format_bytes(freed)}) from {store.root}")
    return 0


def _cache_merge(store, args: argparse.Namespace) -> int:
    source = ResultStore(args.source)
    adopted = store.merge(source)
    print(f"merged {adopted} entr{'y' if adopted == 1 else 'ies'} "
          f"from {source.root} into {store.root}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.cache_dir)
    wanted = [e for e in args.experiments if e]
    if wanted and _known_experiments(wanted) is None:
        return 2
    found = False
    for name, text in store.load_reports():
        if wanted and name not in wanted:
            continue
        found = True
        print(f"=== {name} ===")
        print(text)
        print()
    if not found:
        which = ", ".join(wanted) if wanted else "any experiment"
        print(f"no saved reports for {which} under {store.reports_dir}; "
              f"run `python -m repro run <experiment>` first")
        return 1
    return 0


#: format marker of the ``repro stats --format json`` document.
STATS_FORMAT = "repro.stats/2"


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace <experiment>``: run once, uncached and traced,
    and print the hierarchical span tree (or its JSON document)."""
    experiments = _known_experiments([args.experiment])
    if experiments is None:
        return 2
    from repro.experiments.context import ExperimentContext

    # store=None: a trace must observe real execution, not cache hits.
    ctx = ExperimentContext(full=args.full, processes=args.processes,
                            seed=args.seed, store=None,
                            chunk_bits=args.chunk_bits)
    metrics.REGISTRY.reset()
    with trace.collect(args.experiment) as root:
        text = experiments[args.experiment][0](ctx)
    report = TraceReport.from_run(args.experiment, root,
                                  metrics.REGISTRY.snapshot())
    if args.format == "json":
        print(report.to_json())
        return 0
    print(text)
    print()
    print(render_trace(root, title=f"trace: {args.experiment}"))
    if report.metrics.counters:
        print("counters:")
        for name, value in report.metrics.counters.items():
            print(f"  {name:<36s} {value}")
    if report.metrics.histograms:
        print("histograms:")
        for name, hist in report.metrics.histograms.items():
            print(f"  {name:<36s} n={hist.count} "
                  f"mean={hist.total / hist.count:.3g} "
                  f"min={hist.min:g} max={hist.max:g}")
            edges = [f"<={edge:g}" for edge in hist.bounds]
            edges.append(f">{hist.bounds[-1]:g}")
            print("    " + " ".join(f"{edge}:{n}" for edge, n
                                    in zip(edges, hist.counts) if n))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: aggregate the store's contents per harness
    function (text or a tagged JSON document)."""
    store = ResultStore(args.cache_dir)
    entries = store.entries()
    by_fn: dict[str, dict] = {}
    for e in entries:
        agg = by_fn.setdefault(e.fn, {"results": 0, "bytes": 0,
                                      "wall_s": 0.0})
        agg["results"] += 1
        agg["bytes"] += e.size_bytes
        agg["wall_s"] += e.wall_time
    total_bytes = sum(e.size_bytes for e in entries)
    total_wall = sum(e.wall_time for e in entries)

    payload = {
        "store": {"root": str(store.root), "results": len(entries),
                  "bytes": total_bytes, "wall_s": total_wall,
                  "by_fn": by_fn},
    }
    if args.format == "json":
        print(dump_tagged(STATS_FORMAT, payload, indent=2))
        return 0
    print(f"store at {store.root}: {len(entries)} results, "
          f"{format_bytes(total_bytes)}, {total_wall:.3f}s recorded "
          "wall")
    for fn, agg in sorted(by_fn.items(),
                          key=lambda kv: -kv[1]["wall_s"]):
        print(f"  {fn:<44s} {agg['results']:>4d} results "
              f"{format_bytes(agg['bytes']):>10s} "
              f"{agg['wall_s']:>9.3f}s")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "lint":
            return cmd_lint(args)
        if args.command == "cache":
            return cmd_cache(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "stats":
            return cmd_stats(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
