"""Dictionary and pair-list file handling.

All files are UTF-8 TSV. Dictionary and gold-standard files carry two
fields per line (``source<TAB>target``); result files carry four
(``source<TAB>target<TAB>stage<TAB>cost``). A ``#`` in column one starts a
comment line, blank lines are skipped.
"""

from __future__ import annotations

import io
import unicodedata
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple


class ParseError(ValueError):
    """Malformed input; the message carries the 1-based line number."""


def validate_lang(code: str) -> str:
    """Check a language tag: non-empty, lowercase, no whitespace."""
    if not code or code != code.lower() or any(ch.isspace() for ch in code):
        raise ValueError(f"invalid language tag: {code!r}")
    return code


def normalize_word(raw: str) -> str:
    """Trim, case-fold, compose (NFC) and collapse internal whitespace.

    Multi-word expressions keep single spaces between their tokens.
    Raises ValueError if nothing is left after normalization.
    """
    folded = unicodedata.normalize("NFC", raw.strip().casefold())
    collapsed = " ".join(folded.split())
    if not collapsed:
        raise ValueError("word is empty after normalization")
    return collapsed


class _WordFields(NamedTuple):
    lang: str
    surface: str


class Word(_WordFields):
    """A surface form tagged with its language.

    An immutable ``(lang, surface)`` tuple, so hashing, equality and
    ordering run in C; its hash is ``hash((lang, surface))``.
    """

    __slots__ = ()

    def __new__(cls, lang: str, surface: str):
        if not surface:
            raise ValueError("empty word surface")
        return tuple.__new__(cls, (lang, surface))


@dataclass(frozen=True)
class BilingualDictionary:
    """A set of translation entries oriented source -> target."""

    source: str
    target: str
    entries: frozenset[tuple[Word, Word]]

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("source and target language must differ")
        for s, t in self.entries:
            if s.lang != self.source or t.lang != self.target:
                raise ValueError(f"entry ({s}, {t}) does not match declared languages")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PairSet:
    """A deduplicated set of (A-word, C-word) pairs, oriented A -> C."""

    lang_a: str
    lang_c: str
    pairs: frozenset[tuple[Word, Word]]

    def __post_init__(self):
        for a, c in self.pairs:
            if a.lang != self.lang_a or c.lang != self.lang_c:
                raise ValueError(f"pair ({a}, {c}) does not match declared languages")

    def __len__(self) -> int:
        return len(self.pairs)


def invert_dictionary(d: BilingualDictionary) -> BilingualDictionary:
    """Swap orientation, e.g. turn a B->C dictionary into C->B."""
    return BilingualDictionary(
        d.target, d.source, frozenset((t, s) for s, t in d.entries)
    )


def _iter_lines(text: str | IO[str]) -> Iterator[str]:
    if isinstance(text, str):
        return iter(io.StringIO(text))
    return iter(text)


def _parse_rows(
    text: str | IO[str], normalize: bool, allow_result_rows: bool = False
) -> Iterator[tuple[int, str, str]]:
    for lineno, raw in enumerate(_iter_lines(text), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        ok = len(fields) == 2 or (allow_result_rows and _looks_like_result_row(fields))
        if not ok:
            raise ParseError(
                f"line {lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        src, tgt = fields[0], fields[1]
        try:
            if normalize:
                src, tgt = normalize_word(src), normalize_word(tgt)
            elif not src or not tgt:
                raise ValueError("empty field")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        yield lineno, src, tgt


def _looks_like_result_row(fields: list[str]) -> bool:
    # result files append stage and cost columns; anything else is malformed
    if len(fields) != 4:
        return False
    try:
        float(fields[3])
    except ValueError:
        return False
    return True


def parse_dictionary(
    text: str | IO[str], src: str, tgt: str, normalize: bool = True
) -> BilingualDictionary:
    """Parse a two-field TSV dictionary; duplicates collapse to one entry."""
    src, tgt = validate_lang(src), validate_lang(tgt)
    entries = set()
    for _, s, t in _parse_rows(text, normalize):
        entries.add((Word(src, s), Word(tgt, t)))
    if not entries:
        raise ParseError("dictionary has no entries")
    return BilingualDictionary(src, tgt, frozenset(entries))


def parse_gold_standard(
    text: str | IO[str], lang_a: str, lang_c: str, normalize: bool = True
) -> PairSet:
    """Parse a gold-standard pair file with the same normalization as dictionaries."""
    lang_a, lang_c = validate_lang(lang_a), validate_lang(lang_c)
    pairs = set()
    for _, a, c in _parse_rows(text, normalize):
        pairs.add((Word(lang_a, a), Word(lang_c, c)))
    return PairSet(lang_a, lang_c, frozenset(pairs))


def parse_pair_file(
    text: str | IO[str], lang_a: str, lang_c: str, normalize: bool = True
) -> PairSet:
    """Parse either a 2-field pair file or a 4-field result file as a PairSet."""
    lang_a, lang_c = validate_lang(lang_a), validate_lang(lang_c)
    pairs = set()
    for _, a, c in _parse_rows(text, normalize, allow_result_rows=True):
        pairs.add((Word(lang_a, a), Word(lang_c, c)))
    return PairSet(lang_a, lang_c, frozenset(pairs))


def write_result_pairs(result: Iterable, sink: IO[str]) -> None:
    """Write induced pairs as sorted 4-field TSV; byte-identical across runs.

    Accepts any objects exposing word_a, word_c, stage and cost.
    """
    rows = sorted(result, key=lambda p: (p.word_a, p.word_c))
    for p in rows:
        sink.write(f"{p.word_a.surface}\t{p.word_c.surface}\t{p.stage}\t{p.cost:.6f}\n")


def write_pair_set(pairs: PairSet, sink: IO[str]) -> None:
    """Write a pair set as sorted 2-field TSV."""
    for a, c in sorted(pairs.pairs):
        sink.write(f"{a.surface}\t{c.surface}\n")
