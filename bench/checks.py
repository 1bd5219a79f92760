"""Output checks the benchmark derives from the generated entries alone.

Nothing here imports pivotlex: components, shared-pivot pairs and scores
are recomputed from the generator's own data, so a fault in the program
cannot hide by also being in the check. Every check returns a list of
problems, each tagged with the check that found it; an empty list passes.
"""

from __future__ import annotations

import re

from gen import Inputs

STAGES = ("cognate", "synonym")
_COST = re.compile(r"\d+\.\d{6}")
_THRESHOLD = re.compile(r"\d+\.\d{2}")
# P and R are printed to 6 decimals; recomputing F from the rounded values
# moves it by at most (|dF/dP| + |dF/dR|) * 5e-7 <= 2 * 5e-7, plus F's own
# rounding of 5e-7.
_F_TOLERANCE = 1.5e-6
_PRINTED = 5e-7 + 1e-12


class Reference:
    """Facts about one generated input, computed without pivotlex."""

    def __init__(self, inputs: Inputs):
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(k):
            parent.setdefault(k, k)
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for side, rows in (("A", inputs.ab), ("C", inputs.cb)):
            for w, b in rows:
                ra, rb = find((side, w)), find(("B", b))
                if ra != rb:
                    parent[ra] = rb
        self.root = {k: find(k) for k in list(parent)}
        by_pivot_c: dict[str, list[str]] = {}
        for c, b in inputs.cb:
            by_pivot_c.setdefault(b, []).append(c)
        self.shared_pivot_pairs = {
            (a, c) for a, b in inputs.ab for c in by_pivot_c.get(b, ())
        }
        self.clean = dict(inputs.clean)
        self.clean_c = {c: a for a, c in inputs.clean}
        self.gold = set(inputs.gold)


def parse_rows(text: str) -> tuple[list[tuple[str, str, str, str]], list[str]]:
    rows, problems = [], []
    for n, line in enumerate(text.splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != 4:
            problems.append(f"format: line {n} has {len(fields)} fields")
            continue
        a, c, stage, cost = fields
        if stage not in STAGES:
            problems.append(f"format: line {n} has stage {stage!r}")
        if not _COST.fullmatch(cost):
            problems.append(f"format: line {n} cost {cost!r} is not >= 0 with six decimals")
        rows.append((a, c, stage, cost))
    return rows, problems


def check_induce(text: str, ref: Reference) -> list[str]:
    """Properties every unthresholded induce output must have."""
    rows, problems = parse_rows(text)
    keys = [(a, c) for a, c, _, _ in rows]
    if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
        problems.append("order: rows are not sorted and unique")
    for a, c, _, _ in rows:
        ra, rc = ref.root.get(("A", a)), ref.root.get(("C", c))
        if ra is None or rc is None or ra != rc:
            problems.append(f"component: ({a}, {c}) crosses components")
    cognates = [(a, c) for a, c, stage, _ in rows if stage == "cognate"]
    used_a = {a for a, _ in cognates}
    used_c = {c for _, c in cognates}
    if len(used_a) != len(cognates) or len(used_c) != len(cognates):
        problems.append("one-to-one: a word is in two cognate pairs")
    unmatched = [p for p in ref.shared_pivot_pairs if p[0] not in used_a and p[1] not in used_c]
    if unmatched:
        problems.append(f"maximal: {len(unmatched)} shared-pivot pairs could still be matched")
    clean_rows: dict[str, list] = {}
    for row in rows:
        a, c = row[0], row[1]
        for owner in {ref.clean_c.get(c), a if a in ref.clean else None} - {None}:
            clean_rows.setdefault(owner, []).append(row)
    for a, c in ref.clean.items():
        if clean_rows.get(a) != [(a, c, "cognate", "0.000000")]:
            problems.append(f"clean: group ({a}, {c}) gave {clean_rows.get(a, [])}")
    return problems


def check_same_bytes(text: str, reference: str) -> list[str]:
    if text == reference:
        return []
    at = next(
        (i for i, (x, y) in enumerate(zip(text, reference)) if x != y),
        min(len(text), len(reference)),
    )
    return [f"jobs: output differs from the jobs=1 reference at byte {at}"]


_PRF = ("precision", "recall", "f_score")


def parse_grid(stdout: str) -> tuple[dict[str, str], list[str]]:
    """The key<TAB>value lines printed by grid-search."""
    values = dict(line.split("\t", 1) for line in stdout.splitlines() if "\t" in line)
    want = ("cognate_threshold", "synonym_threshold", *_PRF)
    missing = [k for k in want if k not in values]
    return values, [f"format: grid-search printed no {k}" for k in missing]


def printed_point(values: dict[str, str]) -> tuple[float, float | None, float, float, float]:
    """Cognate and synonym thresholds (None for "-"), then P, R and F."""
    st = values["synonym_threshold"]
    prf = (float(values[k]) for k in _PRF)
    return (float(values["cognate_threshold"]), None if st == "-" else float(st), *prf)


def same_point(stdout: str, point: tuple) -> bool:
    """Whether grid-search printed `point` (as printed_point orders it)."""
    values, problems = parse_grid(stdout)
    if problems:
        return False
    printed = printed_point(values)
    if (printed[1] is None) != (point[1] is None):
        return False
    return all(abs(x - y) <= _PRINTED for x, y in zip(printed, point) if x is not None)


def check_grid(stdout: str) -> list[str]:
    values, problems = parse_grid(stdout)
    if problems:
        return problems
    ct, st = values["cognate_threshold"], values["synonym_threshold"]
    st_ok = st == "-" or (_THRESHOLD.fullmatch(st) and float(st) <= 1)
    if not _THRESHOLD.fullmatch(ct) or not st_ok:
        problems.append(f"grid: thresholds {ct}, {st} are off the 0.01 grid")
    p, r, f = (float(values[k]) for k in _PRF)
    if not all(0.0 <= x <= 1.0 for x in (p, r, f)):
        problems.append(f"range: P/R/F {p}, {r}, {f} outside [0, 1]")
    expect = 2 * p * r / (p + r) if p + r > 0 else 0.0
    if abs(f - expect) > _F_TOLERANCE:
        problems.append(f"f-formula: printed F {f} but 2PR/(P+R) = {expect:.6f}")
    return problems


def score(pairs: set[tuple[str, str]], gold: set[tuple[str, str]]) -> tuple[float, float, float]:
    hits = len(pairs & gold)
    p = hits / len(pairs) if pairs else 0.0
    r = hits / len(gold)
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def postfilter(probe: list[tuple], ct: float, st: float | None) -> set[tuple[str, str]]:
    """The pairs of an unthresholded run that a post-filter at (ct, st)
    keeps: cognates costing less than ct, and synonyms costing less than st
    whose anchor cognate is kept. probe rows are (a, c, stage, cost, anchor).
    This is what grid_search scores in place of a run at (ct, st), so a
    printed P/R/F that equals it and not the rerun shows that known fault."""
    kept = {(a, c) for a, c, stage, cost, _ in probe if stage == "cognate" and cost < ct}
    if st is not None:
        kept |= {
            (a, c)
            for a, c, stage, cost, anchor in probe
            if stage == "synonym" and anchor in kept and cost < st
        }
    return kept


def check_rerun(stdout: str, rerun_text: str, probe: list[tuple], ref: Reference) -> list[str]:
    """The printed P/R/F must be what the printed thresholds really give.

    A mismatch is tagged known-fault when the printed P/R/F is exactly the
    post-filter of the probe at the printed thresholds, and rerun otherwise.
    """
    values, problems = parse_grid(stdout)
    if problems:
        return problems
    rows, problems = parse_rows(rerun_text)
    ct, st, *printed = printed_point(values)

    def agrees(own) -> bool:
        return all(abs(x - y) <= _PRINTED for x, y in zip(own, printed))

    own = score({(a, c) for a, c, _, _ in rows}, ref.gold)
    if agrees(own):
        return problems
    shown = "/".join(values[k] for k in _PRF)
    rerun = "/".join(f"{x:.6f}" for x in own)
    if agrees(score(postfilter(probe, ct, st), ref.gold)):
        tag, why = "known-fault", "the post-filter of the probe's costs"
    else:
        tag, why = "rerun", "neither a run nor a post-filter at those thresholds"
    problems.append(f"{tag}: printed P/R/F {shown} is {why}; a run at those thresholds scores {rerun}")
    return problems


# --- self-test: each check must reject an output corrupted to break it ---


def _lines(rows) -> str:
    return "".join(f"{a}\t{c}\t{s}\t{k}\n" for a, c, s, k in sorted(rows))


def _corruptions(text: str, ref: Reference) -> dict[str, str]:
    rows, _ = parse_rows(text)
    cognates = [r for r in rows if r[2] == "cognate" and r[0] not in ref.clean]
    by_root: dict = {}
    for r in cognates:
        by_root.setdefault(ref.root[("A", r[0])], []).append(r)
    # a cognate word used twice: point a second cognate at the first's C-word
    pair = next(rs for rs in by_root.values() if len(rs) >= 2)
    twice = [r for r in rows if r != pair[1]] + [(pair[1][0], pair[0][1], "cognate", pair[1][3])]
    # a pair across components: swap in a C-word of another component
    first = cognates[0]
    other = next(r for r in rows if ref.root[("A", r[0])] != ref.root[("A", first[0])])
    crossing = [r for r in rows if r != first] + [(first[0], other[1], "synonym", first[3])]
    # a clean group's cost changed
    a, c = next(iter(ref.clean.items()))
    recosted = [r if r[0] != a else (a, c, "cognate", "0.000001") for r in rows]
    # one byte changed
    i = len(text) // 2
    flipped = text[:i] + ("x" if text[i] != "x" else "y") + text[i + 1 :]
    return {
        "one-to-one": _lines(twice),
        "component": _lines(crossing),
        "clean": _lines(recosted),
        "jobs": flipped,
    }


def selftest_induce(text: str, ref: Reference) -> list[str]:
    """Problems with the checks themselves; empty when every corruption is caught."""
    failures = []
    for tag, corrupted in _corruptions(text, ref).items():
        found = check_induce(corrupted, ref) + check_same_bytes(corrupted, text)
        if not any(p.startswith(tag + ":") for p in found):
            failures.append(f"self-test: the {tag} check accepted a corrupted output")
    return failures


def selftest_grid(stdout: str, rerun_text: str, probe: list[tuple], ref: Reference) -> list[str]:
    values, _ = parse_grid(stdout)
    f = float(values["f_score"])
    bad_f = stdout.replace(f"f_score\t{values['f_score']}", f"f_score\t{(f + 0.01) % 1:.6f}")
    found = check_grid(bad_f) + check_rerun(bad_f, rerun_text, probe, ref)
    missing = [t for t in ("f-formula", "rerun") if not any(p.startswith(t + ":") for p in found)]
    return [f"self-test: the {t} check accepted a mismatched F" for t in missing]
