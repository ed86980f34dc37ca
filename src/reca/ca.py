"""Elementary cellular automata: rules, synchronous evolution, rule algebra.

Cells are binary and live on a 1-D ring (wrap-around boundary). A rule is
one of the 256 elementary transition tables, numbered the standard Wolfram
way: bit n of the rule number is the output for the neighborhood whose
three cells read as the binary number n (left*4 + center*2 + right*1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_WIDTH = 3
LANES = 32  # automata per packed word (LaneStepper)


@dataclass(frozen=True, eq=False)
class Rule:
    """An elementary CA rule: its number and 8-entry lookup table.

    ``table[n]`` is the next cell state for neighborhood value ``n``.
    """

    number: int
    table: np.ndarray  # shape (8,), uint8

    def __eq__(self, other):
        if not isinstance(other, Rule):
            return NotImplemented
        return self.number == other.number

    def __hash__(self):
        return hash(self.number)


def make_rule(number: int) -> Rule:
    """Build the lookup table for rule ``number`` (0-255)."""
    if not 0 <= number <= 255:
        raise ValueError(f"rule number must be in [0, 255], got {number}")
    table = np.array([(number >> n) & 1 for n in range(8)], dtype=np.uint8)
    return Rule(int(number), table)


def rule_from_table(table: np.ndarray) -> Rule:
    """Reconstruct a Rule from an 8-entry output table."""
    table = np.asarray(table, dtype=np.uint8)
    if table.shape != (8,) or not np.all(table <= 1):
        raise ValueError("table must be 8 binary entries")
    number = int(sum(int(table[n]) << n for n in range(8)))
    return Rule(number, table)


def step_rows(states: np.ndarray, rule: Rule) -> np.ndarray:
    """Advance a batch of rows (shape (n, width)) by one update each.

    Rows are independent automata; the ring wraps within each row.
    """
    s = np.asarray(states, dtype=np.uint8)
    if s.ndim != 2:
        raise ValueError("states must be two-dimensional")
    if s.shape[1] < MIN_WIDTH:
        raise ValueError(f"state width must be >= {MIN_WIDTH}, got {s.shape[1]}")
    idx = (np.roll(s, 1, axis=1) << 2) | (s << 1) | np.roll(s, -1, axis=1)
    return rule.table[idx]


def anf_terms(rule: Rule) -> tuple[int, ...]:
    """The rule's algebraic normal form over GF(2), as neighborhood masks.

    The next state is the XOR over the returned masks of the AND of the
    cells each mask selects (4 = left, 2 = center, 1 = right); mask 0 is
    the constant 1. Computed by a Moebius transform of the 8-entry table.
    """
    coeffs = [int(v) for v in rule.table]
    for bit in (1, 2, 4):
        for n in range(8):
            if n & bit:
                coeffs[n] ^= coeffs[n ^ bit]
    return tuple(n for n in range(8) if coeffs[n])


class LaneStepper:
    """Advances bit-packed automata of one rule on the ring.

    Bit j of every ``uint32`` word belongs to automaton j (a lane), so one
    update advances ``LANES`` rows per word. The next state is the rule's
    algebraic normal form (:func:`anf_terms`): an XOR of ANDs of the left,
    center and right words, so a linear rule costs one or two XORs. The
    ring wraps through one halo word at each end of every row.
    """

    def __init__(self, rule: Rule, groups: int, width: int):
        self._ring = np.zeros((groups, width + 2), dtype=np.uint32)
        self.state = self._ring[:, 1:-1]  # (groups, width); writable view
        cells = {4: self._ring[:, :-2], 2: self.state, 1: self._ring[:, 2:]}
        terms = anf_terms(rule)
        self._monomials = [
            [cells[bit] for bit in (4, 2, 1) if mask & bit] for mask in terms if mask
        ]
        self._complement = 0 in terms
        self._product = np.empty((groups, width), dtype=np.uint32)

    def advance(self, out: np.ndarray) -> None:
        """Advance ``state`` by one update and copy the new state into ``out``."""
        ring = self._ring
        ring[:, 0] = ring[:, -2]
        ring[:, -1] = ring[:, 1]
        if not self._monomials:
            out[...] = 0
        else:
            acc = _monomial(self._monomials[0], out)
            for factors in self._monomials[1:]:
                np.bitwise_xor(acc, _monomial(factors, self._product), out=out)
                acc = out
            if acc is not out:
                out[...] = acc
        if self._complement:
            np.invert(out, out=out)
        self.state[...] = out


def _monomial(factors: list[np.ndarray], dest: np.ndarray) -> np.ndarray:
    """AND of ``factors``; a single factor is returned as it is."""
    if len(factors) == 1:
        return factors[0]
    np.bitwise_and(factors[0], factors[1], out=dest)
    for factor in factors[2:]:
        np.bitwise_and(dest, factor, out=dest)
    return dest


def lambda_param(rule: Rule) -> float:
    """Langton's lambda: fraction of table entries producing a live cell."""
    return float(rule.table.sum()) / 8.0


def mirror_rule(rule: Rule) -> Rule:
    """Left-right equivalent rule: swaps the roles of left and right neighbors."""
    table = np.empty(8, dtype=np.uint8)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                table[4 * a + 2 * b + c] = rule.table[4 * c + 2 * b + a]
    return rule_from_table(table)


def complement_rule(rule: Rule) -> Rule:
    """Black-white equivalent rule: interchanges live and quiescent cells."""
    table = np.empty(8, dtype=np.uint8)
    for n in range(8):
        table[n] = 1 - rule.table[7 - n]
    return rule_from_table(table)
