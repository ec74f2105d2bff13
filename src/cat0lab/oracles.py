"""Independent oracles used by the verification suite and exposed on the CLI.

These recompute target quantities by routes disjoint from the estimators
they check: the tree walk speed from the one-dimensional distance chain, and
exact tree hitting masses from the first-passage recursion of the
nearest-neighbour walk on the 4-regular tree.
"""

from __future__ import annotations

import numpy as np

from . import _t4
from .errors import UsageError

_LETTERS = tuple(_t4.ALPHABET)


def tree_drift_expected(n: int) -> float:
    """E[d(Z_n x, x)] / n for the uniform 4-generator tree walk, from the
    birth-death chain on distance (up 3/4, down 1/4, reflecting at 0)."""
    if n < 1:
        raise UsageError("walk length must be positive")
    p = np.zeros(n + 2)
    p[0] = 1.0
    for _ in range(n):
        q = np.zeros_like(p)
        q[1] += p[0]
        q[2:] += 0.75 * p[1:-1]
        q[:-1] += 0.25 * p[1:]
        p = q
    return float((np.arange(n + 2) * p).sum() / n)


def tree_first_passage(probs: dict[str, float]) -> dict[str, float]:
    """Minimal solution F_g = P(ever reach vertex g from the origin) of
    F_g = p_g + F_g * sum_{h != g} p_h F_{h^-1}."""
    if set(probs) != set(_LETTERS):
        raise UsageError(f"need probabilities for letters {_t4.ALPHABET!r}")
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-12:
        raise UsageError("letter probabilities must sum to 1")
    f = {g: 0.0 for g in _LETTERS}
    for _ in range(10000):
        new = {}
        for g in _LETTERS:
            s = sum(probs[h] * f[_t4.inv_letter(h)] for h in _LETTERS if h != g)
            new[g] = probs[g] / (1.0 - s) if s < 1.0 else 1.0
        delta = max(abs(new[g] - f[g]) for g in _LETTERS)
        f = new
        if delta < 1e-15:
            break
    return f


def tree_hitting_cylinders(probs: dict[str, float], length: int) -> dict[str, float]:
    """Exact hitting (harmonic) measure of all cylinders of the given length
    for the nearest-neighbour tree walk with the given step probabilities.

    The measure is Markov on non-backtracking letters: the first letter has
    law q_g = p_g (1 - F_{g^-1}) / (1 - s), and given the current letter g the
    next letter h != g^-1 has law
    tau(h | g) = p_h (1 - F_{h^-1}) F_{g^-1} / ((1 - F_{g^-1}) p_{g^-1}).
    """
    if length < 1:
        raise UsageError("cylinder length must be positive")
    f = tree_first_passage(probs)
    s = sum(probs[h] * f[_t4.inv_letter(h)] for h in _LETTERS)
    q = {g: probs[g] * (1.0 - f[_t4.inv_letter(g)]) / (1.0 - s) for g in _LETTERS}
    tau: dict[tuple[str, str], float] = {}
    for g in _LETTERS:
        gi = _t4.inv_letter(g)
        for h in _LETTERS:
            if h == gi:
                continue
            tau[(g, h)] = (
                probs[h] * (1.0 - f[_t4.inv_letter(h)]) * f[gi]
                / ((1.0 - f[gi]) * probs[gi])
            )
    out: dict[str, float] = {}

    def grow(word: str, mass: float) -> None:
        if len(word) == length:
            out[word] = mass
            return
        for h in _LETTERS:
            if h == _t4.inv_letter(word[-1]):
                continue
            grow(word + h, mass * tau[(word[-1], h)])

    for g in _LETTERS:
        grow(g, q[g])
    return out


def uniform_tree_probs() -> dict[str, float]:
    return {g: 0.25 for g in _LETTERS}
