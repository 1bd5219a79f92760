"""Benchmark for pivotlex: seeded inputs, CLI end-to-end timings, and a
traced in-process run for per-layer timings.

Run from the repository root:

    python3 bench/run.py --workload many-small --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

With --trace 0 the run measures the end-to-end metrics: it times the
workload's CLI command in a closed loop (one invocation at a time) for
--seconds seconds; each round also times a fresh interpreter doing the
CLI's set-up and the in-process library call that does the same work. With --trace 1 it makes one traced in-process run and
reports per-layer metrics. "all" runs every workload both ways, one after
another, echoes each run's report and ends with one JSON object holding
every result. The last line of a single-workload run is one JSON object:
correct, attempted, failed and metrics.

An operation is one CLI invocation. It fails unless it exits 0 and its
output passes the workload's checks (see checks.py). Inputs go to
bench/out/<workload>/, together with the outputs and, for a traced run,
spans.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import gen
import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

IMPORT_SAMPLES = 5
OP_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    command: str
    method: str
    jobs: int  # pinned: the CLI default, os.cpu_count(), varies by machine


WORKLOADS = {
    # per-graph overhead: two cycles, both stages, many tiny solves, dispatch
    "many-small": Workload("induce", "2:S:H14", 2),
    # threshold sweep of evaluation.grid_search after one probe induction
    "tune": Workload("grid-search", "2:S:H14", 1),
}


def declared(kind: str) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


LANGS = ("--lang-a", gen.LANG_A, "--lang-b", gen.LANG_B, "--lang-c", gen.LANG_C)

# a fresh interpreter doing the CLI's set-up: import, parse, build, filter
SETUP_CODE = """
import sys
import pivotlex as pl
from pivotlex.pipeline import DEFAULT_MAX_EDGES
dict_ab, dict_cb, gold, a, b, c = sys.argv[1:]
with open(dict_ab, encoding="utf-8") as f:
    d_ab = pl.parse_dictionary(f, a, b)
with open(dict_cb, encoding="utf-8") as f:
    d_cb = pl.parse_dictionary(f, c, b)
if gold != "-":
    with open(gold, encoding="utf-8") as f:
        pl.parse_gold_standard(f, a, c)
pl.filter_big(pl.build_transgraphs(d_ab, d_cb), DEFAULT_MAX_EDGES)
"""


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_process(argv: list[str], stdout_path: str) -> tuple[float, int, float]:
    """Run to completion; returns wall seconds, exit code and peak RSS in MB.

    os.wait4 reports the largest resident set of the process and of every
    child it waited for, which covers the CLI's worker processes.
    """
    with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        timer.join()  # no thread may outlive the call: the library forks workers
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


class Bench:
    """One workload on one seed: inputs, reference facts and the library."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.w = WORKLOADS[name]
        self.inputs = gen.WORKLOADS[name](seed)
        self.dir = os.path.join(OUT, name)
        self.files = gen.write_inputs(self.inputs, self.dir)
        self.ref = checks.Reference(self.inputs)

    @property
    def induce(self) -> bool:
        return self.w.command == "induce"

    def cli_argv(self) -> list[str]:
        f = self.files
        argv = [sys.executable, "-m", "pivotlex.cli", self.w.command]
        argv += ["--dict-ab", f["dict_ab"], "--dict-cb", f["dict_cb"], *LANGS]
        argv += ["--method", self.w.method]
        if self.induce:
            return argv + ["--jobs", str(self.w.jobs), "-o", self.cli_output]
        return argv + ["--gold", f["gold"]]

    @property
    def cli_output(self) -> str:
        return os.path.join(self.dir, "cli.out")

    def run_cli(self) -> tuple[float, int, float, str]:
        stdout = os.path.join(self.dir, "cli.stdout")
        wall, code, peak = run_process(self.cli_argv(), stdout)
        text = read(self.cli_output if self.induce else stdout) if code == 0 else ""
        return wall, code, peak, text

    def setup_time(self) -> float:
        f = self.files
        gold = f["gold"] if not self.induce else "-"
        argv = [sys.executable, "-c", SETUP_CODE, f["dict_ab"], f["dict_cb"], gold]
        wall, code, _ = run_process(argv + [gen.LANG_A, gen.LANG_B, gen.LANG_C], os.path.join(self.dir, "setup.stdout"))
        if code != 0:
            raise RuntimeError(f"set-up exited {code}: see {self.dir}/setup.stdout.err")
        return wall

    # --- in-process library ---

    def load(self):
        import pivotlex as pl
        from pivotlex import evaluation, pipeline

        self.pl, self.evaluation, self.pipeline = pl, evaluation, pipeline
        self.method = pl.parse_method(self.w.method)
        with open(self.files["dict_ab"], encoding="utf-8") as f:
            self.d_ab = pl.parse_dictionary(f, gen.LANG_A, gen.LANG_B)
        with open(self.files["dict_cb"], encoding="utf-8") as f:
            self.d_cb = pl.parse_dictionary(f, gen.LANG_C, gen.LANG_B)
        with open(self.files["gold"], encoding="utf-8") as f:
            self.gold = pl.parse_gold_standard(f, gen.LANG_A, gen.LANG_C)
        if not self.induce:
            # grid_search's own probe: unthresholded, jobs=1; untimed
            probe = pl.induce_on_transgraphs(self.fresh(), self.method, self.pipeline.HyperParams(), jobs=1)
            self.probe = [
                (p.word_a.surface, p.word_c.surface, p.stage, p.cost,
                 p.anchor and (p.anchor[0].surface, p.anchor[1].surface))
                for p in probe.pairs
            ]

    def fresh(self):
        """Newly built transgraphs, so no cached index carries over."""
        pl = self.pl
        return pl.filter_big(pl.build_transgraphs(self.d_ab, self.d_cb), self.pipeline.DEFAULT_MAX_EDGES)

    def induce_text(self, tset, jobs: int, hp=None) -> str:
        result = self.pl.induce_on_transgraphs(tset, self.method, hp, jobs=jobs)
        buf = io.StringIO()
        self.pl.write_result_pairs(result.pairs, buf)
        return buf.getvalue()

    def rerun_text(self, stdout: str) -> str:
        """An untimed induce run at the thresholds grid-search printed."""
        values, _ = checks.parse_grid(stdout)
        ct, st, *_ = checks.printed_point(values)
        return self.induce_text(self.fresh(), 1, self.pipeline.HyperParams(ct, st))


def grid_point(best) -> tuple:
    """A GridPoint in the order checks.printed_point uses."""
    m = best.metrics
    return (best.cognate_threshold, best.synonym_threshold, m.precision, m.recall, m.f_score)


class Verdicts:
    """Operation counts and the problems found, split into the known fault
    (grid_search post-filters recorded costs instead of re-running at the
    chosen thresholds) and everything else."""

    KNOWN = "known-fault:"

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
        for p in problems:
            (self.known if p.startswith(self.KNOWN) else self.unexpected).append(p)

    def check(self, problems: list[str]) -> None:
        self.unexpected += problems


def verify_cli(b: Bench, code: int, text: str, reference: str, rerun: dict) -> list[str]:
    if code != 0:
        return [f"exit: {b.w.command} exited {code}"]
    if b.induce:
        return checks.check_induce(text, b.ref) + checks.check_same_bytes(text, reference)
    _, missing = checks.parse_grid(text)
    if missing:
        return missing
    if text not in rerun:
        rerun[text] = b.rerun_text(text)
    return checks.check_grid(text) + checks.check_rerun(text, rerun[text], b.probe, b.ref)


def measure(b: Bench, seconds: float) -> tuple[Verdicts, dict[str, float]]:
    b.load()
    v = Verdicts()
    reference = ""
    if b.induce:
        reference = b.induce_text(b.fresh(), 1)
        v.check(checks.check_induce(reference, b.ref) + checks.selftest_induce(reference, b.ref))
    rerun: dict[str, str] = {}
    walls, peaks, setups, computes = [], [], [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        wall, code, peak, text = b.run_cli()
        walls.append(wall)
        peaks.append(peak)
        v.operation(verify_cli(b, code, text, reference, rerun))
        if not b.induce and len(walls) == 1 and text in rerun:
            v.check(checks.selftest_grid(text, rerun[text], b.probe, b.ref))
        setups.append(b.setup_time())

        tset = b.fresh()
        start = time.perf_counter()
        if b.induce:
            out = b.induce_text(tset, b.w.jobs)
        else:
            best = b.evaluation.grid_search(tset, b.method, b.gold)
        computes.append(time.perf_counter() - start)
        same = out == reference if b.induce else code != 0 or checks.same_point(text, grid_point(best))
        if not same:
            v.check(["compute: the library call's output differs from the CLI's"])
    with open(os.path.join(b.dir, "samples.json"), "w", encoding="utf-8") as f:
        json.dump({"setup_s": setups, "wall_s": walls, "compute_s": computes, "peak_rss_mb": peaks}, f)
    print(f"{b.name}  {len(walls)} rounds; each time below is a median over them")
    wall = statistics.median(walls)
    return v, {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "compute_s": statistics.median(computes),
        "peak_rss_mb": statistics.median(peaks),
        "entries_per_s": b.inputs.entries / wall,
    }


def import_time(b: Bench) -> float:
    """Fresh `import pivotlex` minus a bare interpreter start (medians)."""
    out = os.path.join(b.dir, "import.stdout")

    def median_wall(code: str) -> float:
        return statistics.median(
            run_process([sys.executable, "-c", code], out)[0] for _ in range(IMPORT_SAMPLES)
        )

    return median_wall("import pivotlex") - median_wall("pass")


def traced(b: Bench) -> tuple[Verdicts, dict[str, float]]:
    """One traced in-process run at jobs=1, then the untraced comparisons."""
    import_s = import_time(b)
    import pivotlex as pl
    from pivotlex import evaluation, pipeline

    t = tracing.Tracer()
    entries = tracing.counter("lexicon.entries", lambda args, r: len(r))
    with open(b.files["dict_ab"], encoding="utf-8") as f:
        d_ab = t.call("lexicon.parse_dictionary", pl.parse_dictionary, f, gen.LANG_A, gen.LANG_B, count=entries)
    with open(b.files["dict_cb"], encoding="utf-8") as f:
        d_cb = t.call("lexicon.parse_dictionary", pl.parse_dictionary, f, gen.LANG_C, gen.LANG_B, count=entries)
    gold = None
    if not b.induce:
        with open(b.files["gold"], encoding="utf-8") as f:
            gold = t.call("lexicon.parse_gold_standard", pl.parse_gold_standard, f, gen.LANG_A, gen.LANG_C)
    built = t.call("transgraph.build_transgraphs", pl.build_transgraphs, d_ab, d_cb)
    tset = t.call("transgraph.filter_big", pl.filter_big, built, pipeline.DEFAULT_MAX_EDGES)
    method = pl.parse_method(b.w.method)
    written = tracing.counter("lexicon.pairs_written", lambda args, r: len(args[0]))

    with t.patched(pipeline, tracing.PIPELINE_CALLS), t.patched(evaluation, tracing.EVALUATION_CALLS):
        start = time.perf_counter()
        if b.induce:
            result = t.call("pipeline.induce_on_transgraphs", pl.induce_on_transgraphs, tset, method, None, jobs=1)
            buf = io.StringIO()
            t.call("lexicon.write_result_pairs", pl.write_result_pairs, result.pairs, buf, count=written)
            output = buf.getvalue()
        else:
            best = t.call("evaluation.grid_search", pl.grid_search, tset, method, gold)
        traced_compute = time.perf_counter() - start
    t.dump(os.path.join(b.dir, "spans.json"))

    b.load()
    v = Verdicts()
    _, code, _, text = b.run_cli()
    rerun: dict[str, str] = {}
    if b.induce:
        v.check(checks.check_induce(output, b.ref) + checks.selftest_induce(output, b.ref))
        v.operation(verify_cli(b, code, text, output, rerun))
    else:
        v.operation(verify_cli(b, code, text, "", rerun))
        if code == 0 and not checks.same_point(text, grid_point(best)):
            v.check(["compute: the traced grid_search differs from the CLI's"])

    m = tracing.layer_metrics(t)
    m["cli.import_s"] = import_s
    m["transgraph.graphs"] = len(tset.graphs)
    m["transgraph.edges_max"] = max((len(g.edges) for g in tset.graphs), default=0)
    m["transgraph.skipped"] = len(tset.skipped)

    def timed(fn, *args) -> float:
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start

    def induce(tset, jobs):
        return pl.induce_on_transgraphs(tset, method, None, jobs=jobs)

    m["pipeline.jobs1_s"] = timed(induce, b.fresh(), 1)
    m["pipeline.jobsN_s"] = timed(induce, b.fresh(), b.w.jobs)
    graphs = [
        timed(induce, pl.TransgraphSet(tset.lang_a, tset.lang_b, tset.lang_c, [g]), 1) * 1000
        for g in b.fresh().graphs
    ]
    m["pipeline.graph_p50_ms"] = statistics.median(graphs) if graphs else 0.0
    m["pipeline.graph_p99_ms"] = tracing.percentile(graphs, 0.99)
    if b.induce:
        untraced = m["pipeline.jobs1_s"] + timed(pl.write_result_pairs, result.pairs, io.StringIO())
    else:
        untraced = timed(pl.grid_search, b.fresh(), method, gold)
    m["trace.overhead_s"] = traced_compute - untraced
    for name in t.missing:
        print(f"note: {name} no longer exists; its spans read zero")
    # a layer that recorded no span reads 0
    return v, {name: m.get(name, 0) for name in declared("per_layer")}


def report(b: Bench, v: Verdicts, metrics: dict[str, float], units: dict[str, str]) -> dict:
    for problem in (v.unexpected + v.known)[:20]:
        print(f"problem: {problem}")
    values = {name: metrics[name] for name in units}
    for name, value in values.items():
        print(f"{b.name}  {name} = {value:.6g} {units[name]}")
    print(f"{b.name}  attempted = {v.attempted}  failed = {v.failed}")
    return {
        "correct": not v.unexpected,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {k: {"value": x, "unit": units[k]} for k, x in values.items()},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
            argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[f"{name}/trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pivotlex", "__init__.py")):
        print(f"error: no pivotlex sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    b = Bench(args.workload, args.seed)
    if args.trace:
        v, metrics = traced(b)
        result = report(b, v, metrics, declared("per_layer"))
    else:
        v, metrics = measure(b, args.seconds)
        result = report(b, v, metrics, declared("end_to_end"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
