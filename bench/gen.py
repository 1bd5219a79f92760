"""Seeded synthetic dictionaries for the benchmark workloads.

Every workload is built from clusters of planted groups: an A-word and a
C-word that translate each other through 1-3 shared pivots. Around them
the generator adds the shapes the pipeline reacts to:

  dropped links   one pivot loses its A- or C-side link, an asymmetric
                  shape that the symmetry cycles complete
  synonyms        a second A- or C-word linked to some of the pivots
  stray words     an extra word on one pivot (a wrong translation)
  noise           a planted word of one group linked to a pivot of the
                  next group in its cluster
  clean groups    isolated, one-to-one, every pivot shared: the only
                  correct output for one is its planted pair at cost 0

The gold standard is every planted pair: the group's A-C pair plus its
synonym pairs. The same seed always gives the same files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

LANG_A, LANG_B, LANG_C = "min", "ind", "zlm"

_SYLLABLES = [c + v for c in "bdgklmnprstw" for v in "aeiou"]

# Group shapes, cycled in order: every seed gets the same shapes, so the
# work in a run does not depend on the seed. The seed picks every
# spelling, which moves word order, form similarity (H4), costs and
# tie-breaks.
#   (pivots, side that loses a link, synonym side and pivot count, stray side)
SHAPES = [
    (1, None, None, None),
    (2, "A", ("C", 1), None),
    (3, None, ("A", 2), "C"),
    (2, None, ("C", 1), "A"),
    (3, "C", ("A", 1), None),
    (1, None, ("A", 1), None),
]

# Every planted synonym is linked to all of its group's pivots, so it costs
# 0 and the F-optimal synonym threshold is 0.01 on every seed. In the
# two-group clusters a costlier wrong synonym is accepted before cost-0
# ones whose links it supplied, so at that threshold a rerun stops before
# pairs that the post-filter keeps.
TUNE_SHAPES = [
    (1, None, ("A", 1), None),
    (2, "A", ("C", 2), None),
    (3, None, ("A", 3), "C"),
    (2, None, ("C", 2), "A"),
    (3, "C", ("A", 3), None),
    (1, None, ("C", 1), None),
]


@dataclass
class Inputs:
    ab: set[tuple[str, str]] = field(default_factory=set)  # (A-word, pivot)
    cb: set[tuple[str, str]] = field(default_factory=set)  # (C-word, pivot)
    gold: set[tuple[str, str]] = field(default_factory=set)  # (A-word, C-word)
    clean: list[tuple[str, str]] = field(default_factory=list)

    @property
    def entries(self) -> int:
        return len(self.ab) + len(self.cb)


@dataclass
class _Group:
    a: str
    c: str
    pivots: list[str]


class _Generator:
    def __init__(self, seed: int, shapes: list):
        self.rng = random.Random(seed)
        self.shapes = shapes
        self.out = Inputs()
        self.serial = 0

    def _stem(self) -> str:
        return "".join(self.rng.choice(_SYLLABLES) for _ in range(self.rng.randint(2, 3)))

    def _uid(self) -> str:
        # a serial suffix keeps surfaces unique within each language
        self.serial += 1
        return f"{self.serial:05d}"

    def _cognate_of(self, stem: str) -> str:
        syl = [stem[i : i + 2] for i in range(0, len(stem), 2)]
        syl[self.rng.randrange(len(syl))] = self.rng.choice(_SYLLABLES)
        return "".join(syl)

    def _add(self, side: str, word: str, pivots: list[str]) -> None:
        (self.out.ab if side == "A" else self.out.cb).update((word, b) for b in pivots)

    def group(self, index: int, clean: bool = False) -> _Group:
        k, drop, syn, stray = self.shapes[index % len(self.shapes)]
        uid = self._uid()
        stem = self._stem()
        a, c = stem + uid, self._cognate_of(stem) + uid
        pivots = [f"{self._stem()}{uid}{i}" for i in range(k)]
        self.out.gold.add((a, c))
        if clean:
            self._add("A", a, pivots)
            self._add("C", c, pivots)
            self.out.clean.append((a, c))
            return _Group(a, c, pivots)
        # a dropped link always leaves pivot 0 as a complete path
        self._add("A", a, pivots[:-1] if drop == "A" else pivots)
        self._add("C", c, pivots[:-1] if drop == "C" else pivots)
        if syn:
            side, n = syn
            word = self._cognate_of(stem) + self._uid()
            self._add(side, word, pivots[:n])
            self.out.gold.add((word, c) if side == "A" else (a, word))
        if stray:
            self._add(stray, self._stem() + self._uid(), pivots[-1:])
        return _Group(a, c, pivots)

    def clusters(self, n_clusters: int, sizes: list[int], clean_every: int = 0) -> Inputs:
        """Independent clusters of groups; noise links chain each cluster."""
        index = 0
        for i in range(n_clusters):
            if clean_every and i % clean_every == 0:
                self.group(index, clean=True)
                index += 1
                continue
            groups = []
            for _ in range(sizes[i % len(sizes)]):
                groups.append(self.group(index))
                index += 1
            for src, dst in zip(groups, groups[1:]):
                # the planted A- or C-word of src takes dst's first pivot
                self._add("AC"[i % 2], src.a if i % 2 == 0 else src.c, dst.pivots[:1])
        return self.out


def many_small(seed: int) -> Inputs:
    return _Generator(seed, SHAPES).clusters(1200, [1, 1, 1, 1, 2], clean_every=20)


def tune(seed: int) -> Inputs:
    # few clusters: the sweep's cost is mostly per grid point, so a small
    # input keeps each sample short and a run holds many of them
    return _Generator(seed, TUNE_SHAPES).clusters(8, [1, 2])


WORKLOADS = {"many-small": many_small, "tune": tune}


def write_inputs(inputs: Inputs, directory: str) -> dict[str, str]:
    """Write the TSV files the CLI reads; returns their paths by role."""
    os.makedirs(directory, exist_ok=True)
    paths = {
        "dict_ab": os.path.join(directory, "dict_ab.tsv"),
        "dict_cb": os.path.join(directory, "dict_cb.tsv"),
        "gold": os.path.join(directory, "gold.tsv"),
    }
    for role, rows in (("dict_ab", inputs.ab), ("dict_cb", inputs.cb), ("gold", inputs.gold)):
        with open(paths[role], "w", encoding="utf-8", newline="") as f:
            f.writelines(f"{x}\t{y}\n" for x, y in sorted(rows))
    return paths
