"""Closed-form model of how pivot polysemy drags translation precision down.

With n senses shared between a pivot and the surrounding word pair and m
pivot senses not shared, counting the sense subsets that still yield a
correct translation against all subset combinations predicts the
precision of pairs extracted through that pivot.
"""

from __future__ import annotations

from typing import IO

# the documented --n-max range; Python integers cannot overflow, so the
# cap bounds the interface, not the arithmetic
MAX_SHARED_SENSES = 20


def correct_translations(n: int) -> int:
    """Number of sense-subset combinations that translate correctly.

    Twice the sum of C(n, i) * C(i, j) over 1 <= j <= i <= n, which is
    3**n - 2**n, less the sum of C(n, i) over 1 <= i <= n, which is 2**n - 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return 2 * 3**n - 3 * 2**n + 1


def total_translations(n: int, m: int) -> int:
    return (2**n - 1 + 2**m - 1) ** 2


def wrong_translations(n: int, m: int) -> int:
    return total_translations(n, m) - correct_translations(n) - correct_translations(m)


def predicted_precision(n: int, m: int) -> float:
    """Expected precision for n shared and m unshared pivot senses."""
    if n < 0 or m < 0:
        raise ValueError("sense counts must be >= 0")
    if n + m == 0:
        raise ValueError("at least one sense is required")
    if max(n, m) > MAX_SHARED_SENSES:
        raise ValueError(f"sense counts above {MAX_SHARED_SENSES} are not supported")
    return (correct_translations(n) + correct_translations(m)) / total_translations(n, m)


def sweep(n_max: int) -> list[tuple[int, int, float]]:
    """Rows (n, m, precision) for n in 1..n_max, m in 0..n."""
    if not 1 <= n_max <= MAX_SHARED_SENSES:
        raise ValueError(f"n_max must lie in 1..{MAX_SHARED_SENSES}")
    return [
        (n, m, predicted_precision(n, m))
        for n in range(1, n_max + 1)
        for m in range(0, n + 1)
    ]


def write_sweep_csv(rows: list[tuple[int, int, float]], sink: IO[str]) -> None:
    sink.write("n,m,precision\n")
    for n, m, p in rows:
        sink.write(f"{n},{m},{p:.6f}\n")
