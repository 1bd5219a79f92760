"""Command-line interface.

Subcommands: induce, baseline (cp | ic), eval, grid-search, cv, ttest,
polysemy, stats, export-wcnf. Exit codes: 0 success, 1 usage error,
2 data error. Reruns on identical inputs write identical bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys

from . import baselines, evaluation, polysemy
from .lexicon import (
    ParseError,
    parse_dictionary,
    parse_gold_standard,
    parse_pair_file,
    invert_dictionary,
    validate_lang,
    write_pair_set,
    write_result_pairs,
)
from .pipeline import (
    DEFAULT_MAX_EDGES,
    HyperParams,
    induce_on_transgraphs,
    parse_method,
    render_report,
    run_cycles,
)
from .transgraph import build_transgraphs, component_stats, filter_big


def _parsed(parse):
    """An argparse type: `parse(text)`, whose ValueError is a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:  # surface the parser's message through argparse
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


_method_arg = _parsed(parse_method)
_LANG = _parsed(validate_lang)


def _checked(kind, ok, want: str):
    """An argparse type: `kind(text)`, a usage error with `want` unless `ok` holds.

    Write `ok` so that NaN, which fails every comparison, fails it too.
    """
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{want}, got {text}")
        return value

    return convert


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "must be a positive integer")
_BETA = _checked(float, lambda v: 0 < v < math.inf, "beta must be positive and finite")


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_dict_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dict-ab", required=True, help="A->B dictionary (TSV)")
    p.add_argument("--dict-cb", required=True, help="C->B dictionary (TSV)")
    p.add_argument(
        "--invert-cb",
        action="store_true",
        help="treat --dict-cb as B->C and invert it",
    )
    p.add_argument("--lang-a", type=_LANG, default="a", help="language tag of side A")
    p.add_argument("--lang-b", type=_LANG, default="b", help="language tag of the pivot")
    p.add_argument("--lang-c", type=_LANG, default="c", help="language tag of side C")
    p.add_argument(
        "--no-normalize",
        action="store_true",
        help="keep surfaces verbatim (no case folding or recomposition)",
    )
    p.add_argument("--max-edges", type=_POSITIVE_INT, default=DEFAULT_MAX_EDGES)


def _read(path: str, parse, *args):
    """`parse(f, *args)` on the UTF-8 file at `path`; its input errors name the file."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return parse(f, *args)
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_dicts(args):
    normalize = not args.no_normalize
    dict_ab = _read(args.dict_ab, parse_dictionary, args.lang_a, args.lang_b, normalize)
    if args.invert_cb:
        dict_bc = _read(args.dict_cb, parse_dictionary, args.lang_b, args.lang_c, normalize)
        return dict_ab, invert_dictionary(dict_bc)
    return dict_ab, _read(args.dict_cb, parse_dictionary, args.lang_c, args.lang_b, normalize)


def _load_gold(args):
    gold = _read(
        args.gold, parse_gold_standard, args.lang_a, args.lang_c, not args.no_normalize
    )
    if not gold.pairs:
        raise ParseError(f"{args.gold}: gold standard is empty")
    return gold


def _build_transgraphs(args):
    """The transgraphs within --max-edges; says on stderr how many were skipped."""
    tset = filter_big(build_transgraphs(*_load_dicts(args)), args.max_edges)
    if tset.skipped:
        largest = max(edges for _, edges in tset.skipped)
        print(
            f"warning: --max-edges {args.max_edges} skipped {len(tset.skipped)}"
            f" transgraph(s), the largest with {largest} edges",
            file=sys.stderr,
        )
    return tset


def _keep_blocks(path: str, flags: int) -> int:
    """An `open` opener: the flags Python chose, less O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


class _out:
    """`with _out(path) as f`: UTF-8 text written over the file at `path` in place.

    An existing file is not truncated on open but cut to the written length
    on close, also when the block raises, so a rerun that writes as many
    bytes frees no blocks; freeing a written file's blocks can block for
    tens of milliseconds (ext4 mounted with `discard`). A device or pipe is
    not cut.
    """

    def __init__(self, path: str):
        self.file = open(path, "w", encoding="utf-8", newline="", opener=_keep_blocks)

    def __enter__(self):
        return self.file

    def __exit__(self, *exc_info) -> None:
        with self.file as f:  # closed on every path
            try:
                f.flush()
            finally:
                fd = f.fileno()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _cmd_induce(args) -> int:
    if args.synonym_threshold is not None and args.method.method != "S":
        print("warning: --synonym-threshold has no effect without method S", file=sys.stderr)
    tset = _build_transgraphs(args)
    hp = HyperParams(args.cognate_threshold, args.synonym_threshold)
    result = induce_on_transgraphs(tset, args.method, hp, jobs=args.jobs)
    with _out(args.output) as f:
        write_result_pairs(result.pairs, f)
    if args.report:
        with _out(args.report) as f:
            f.write(render_report(result))
    return 0


def _cmd_baseline(args) -> int:
    if args.baseline == "cp":
        pairs = baselines.cartesian_product(_build_transgraphs(args), args.scope)
    else:
        pairs = baselines.inverse_consultation(*_load_dicts(args), args.delta)
    with _out(args.output) as f:
        write_pair_set(pairs, f)
    return 0


def _cmd_eval(args) -> int:
    result = _read(
        args.result, parse_pair_file, args.lang_a, args.lang_c, not args.no_normalize
    )
    metrics = evaluation.score(result, _load_gold(args), args.beta)
    sys.stdout.write(evaluation.metrics_tsv(metrics))
    return 0


def _cmd_grid_search(args) -> int:
    tset = _build_transgraphs(args)
    gold = _load_gold(args)
    best = evaluation.grid_search(tset, args.method, gold, args.beta)
    st = "-" if best.synonym_threshold is None else f"{best.synonym_threshold:.2f}"
    sys.stdout.write(
        f"cognate_threshold\t{best.cognate_threshold:.2f}\n"
        f"synonym_threshold\t{st}\n"
    )
    sys.stdout.write(evaluation.metrics_tsv(best.metrics))
    return 0


def _cmd_cv(args) -> int:
    tset = _build_transgraphs(args)
    gold = _load_gold(args)
    report = evaluation.cross_validate(tset, args.method, gold, args.folds, args.beta)
    rows = [["fold", "test_ids", "cognate_t", "synonym_t", "precision", "recall", "f_score"]]
    for fold in report.folds:
        st = "-" if fold.grid.synonym_threshold is None else f"{fold.grid.synonym_threshold:.2f}"
        rows.append(
            [
                str(fold.fold_index),
                f"{fold.test_ids[0]}-{fold.test_ids[-1]}",
                f"{fold.grid.cognate_threshold:.2f}",
                st,
                f"{fold.test_metrics.precision:.3f}",
                f"{fold.test_metrics.recall:.3f}",
                f"{fold.test_metrics.f_score:.3f}",
            ]
        )
    sys.stdout.write(evaluation.format_aligned(rows))
    sys.stdout.write(f"mean f_score: {report.mean_f:.3f}\n")
    return 0


def _cmd_ttest(args) -> int:
    xs = _read(args.xs, _parse_numbers)
    ys = _read(args.ys, _parse_numbers)
    report = evaluation.paired_t_test(xs, ys)
    sys.stdout.write(
        f"t\t{report.t_stat:.4f}\ndf\t{report.df}\n"
        f"p\t{report.p_value:.5f}\nmean_diff\t{report.mean_diff:.6g}\n"
    )
    return 0


def _parse_numbers(lines) -> list[float]:
    values = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: not a number") from exc
        if not math.isfinite(value):
            raise ParseError(f"line {lineno}: not a finite number")
        values.append(value)
    return values


def _cmd_polysemy(args) -> int:
    rows = polysemy.sweep(args.n_max)
    if args.output:
        with _out(args.output) as f:
            polysemy.write_sweep_csv(rows, f)
    else:
        polysemy.write_sweep_csv(rows, sys.stdout)
    return 0


def _cmd_stats(args) -> int:
    tset = _build_transgraphs(args)
    sys.stdout.write("id\ta_words\tpivots\tc_words\tedges\n")
    for g in tset.graphs:
        s = component_stats(g)
        sys.stdout.write(f"{g.id}\t{s.a_count}\t{s.b_count}\t{s.c_count}\t{s.edge_count}\n")
    for tg_id, edges in tset.skipped:
        sys.stdout.write(f"# skipped {tg_id}: {edges} edges\n")
    return 0


def _cmd_export_wcnf(args) -> int:
    from .encoding import write_cognate_wcnf  # only this command needs it

    tset = _build_transgraphs(args)
    descriptor = args.method
    graphs = tset.graphs
    if args.transgraph_id is not None:
        tg_id = args.transgraph_id
        graphs = [g for g in tset.graphs if g.id == tg_id]
        if not graphs:
            edges = dict(tset.skipped).get(tg_id)
            why = "" if edges is None else (
                f" (--max-edges {args.max_edges} skipped it, with {edges} edges)"
            )
            raise ValueError(f"no transgraph with id {tg_id}{why}")
    os.makedirs(args.out_dir, exist_ok=True)
    written = 0
    for g in graphs:
        cyc = run_cycles(g, descriptor)
        if not cyc.candidates:
            continue
        with _out(os.path.join(args.out_dir, f"tg{g.id}.wcnf")) as f:
            write_cognate_wcnf(
                cyc.graph, cyc.candidates, f, uniqueness=descriptor.method != "M"
            )
        written += 1
    if written < len(graphs):
        print(
            f"warning: no formula file for {len(graphs) - written}"
            " transgraph(s) without cognate candidates",
            file=sys.stderr,
        )
    sys.stdout.write(f"wrote {written} formula file(s) to {args.out_dir}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotlex",
        description="Induce bilingual dictionaries through a pivot language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("induce", help="run the constraint pipeline")
    _add_dict_args(p)
    p.add_argument(
        "--method", required=True, type=_method_arg, help="descriptor like 2:S:H14"
    )
    p.add_argument(
        "--cognate-threshold",
        type=_checked(float, lambda v: v >= 0, "threshold must be >= 0.0"),
    )
    p.add_argument(
        "--synonym-threshold",
        type=_checked(float, lambda v: 0 <= v <= 1, "threshold must be 0.0..1.0"),
    )
    p.add_argument("--jobs", type=_POSITIVE_INT, default=_usable_cpus())
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", help="write per-transgraph diagnostics here")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("baseline", help="Cartesian-product / inverse-consultation baselines")
    p.add_argument("baseline", choices=["cp", "ic"])
    _add_dict_args(p)
    p.add_argument("--scope", choices=["within", "across"], default="within")
    p.add_argument("--delta", type=_POSITIVE_INT, default=baselines.DEFAULT_IC_DELTA)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("eval", help="score a result file against a gold standard")
    p.add_argument("--result", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--beta", type=_BETA, default=1.0)
    p.add_argument("--lang-a", type=_LANG, default="a")
    p.add_argument("--lang-c", type=_LANG, default="c")
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid-search", help="find the thresholds maximizing F")
    _add_dict_args(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--method", required=True, type=_method_arg)
    p.add_argument("--beta", type=_BETA, default=1.0)
    p.set_defaults(func=_cmd_grid_search)

    p = sub.add_parser("cv", help="k-fold cross-validated threshold tuning")
    _add_dict_args(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--method", required=True, type=_method_arg)
    folds = _checked(int, lambda v: v >= 2, "must be >= 2")
    p.add_argument("--folds", type=folds, default=3)
    p.add_argument("--beta", type=_BETA, default=1.0)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("ttest", help="one-tailed paired t-test on two value files")
    p.add_argument("xs")
    p.add_argument("ys")
    p.set_defaults(func=_cmd_ttest)

    p = sub.add_parser("polysemy", help="pivot-polysemy precision model sweep")
    top = polysemy.MAX_SHARED_SENSES
    n_max = _checked(int, lambda v: 1 <= v <= top, f"must be 1..{top}")
    p.add_argument("--n-max", type=n_max, default=10)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_polysemy)

    p = sub.add_parser("stats", help="per-transgraph size report")
    _add_dict_args(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("export-wcnf", help="dump cognate-stage formulas as WCNF")
    _add_dict_args(p)
    p.add_argument("--method", required=True, type=_method_arg)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--transgraph-id", type=int, default=None)
    p.set_defaults(func=_cmd_export_wcnf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
