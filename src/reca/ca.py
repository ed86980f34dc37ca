"""Elementary cellular automata: rules, synchronous evolution, rule algebra.

Cells are binary and live on a 1-D ring (wrap-around boundary). A rule is
one of the 256 elementary transition tables, numbered the standard Wolfram
way: bit n of the rule number is the output for the neighborhood whose
three cells read as the binary number n (left*4 + center*2 + right*1).

There is one update kernel, :class:`LaneStepper`, which steps 32 automata
per ``uint32`` word through the rule's algebraic normal form. :func:`evolve`
packs rows into its lanes and unpacks the evolved rows; :func:`step_rows`
is one update of :func:`evolve`.
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

    Rows are independent automata; the ring wraps within each row. This is
    :func:`evolve` for one time step that writes every cell, with I = 1.
    """
    s = np.asarray(states)
    if s.ndim != 2:
        raise ValueError("states must be two-dimensional")
    width = s.shape[1]
    return evolve(s[:, None], np.arange(width), rule, 1, width)[:, 0]


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
        if width < MIN_WIDTH:
            raise ValueError(f"state width must be >= {MIN_WIDTH}, got {width}")
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


def evolve(
    inputs: np.ndarray, positions: np.ndarray, rule: Rule, iterations: int, width: int
) -> np.ndarray:
    """Drive ``n`` automata of ``width`` cells over ``T`` input steps.

    At step t the input ``inputs[:, t]`` is written onto the cells at
    ``positions`` (onto zeros at t = 0, onto the previous step's last
    iteration afterwards), then ``rule`` is applied ``iterations`` times.

    Args:
        inputs: (n, T, L_in) array of 0s and 1s; any other value is a
            ValueError.
        positions: the cells the input is written onto, ``R*L_in`` of them:
            R copies of the input, one after the other.
        rule: the rule every automaton follows.
        iterations: updates per time step (I >= 1).
        width: cells per automaton.

    Returns:
        (n, T, I*width) uint8: the I evolved rows of every step, concatenated.
    """
    x = np.asarray(inputs)
    if not ((x == 0) | (x == 1)).all():
        raise ValueError("inputs must be binary")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n_seq, seq_len, input_width = x.shape
    groups = -(-n_seq // LANES)

    # Sequence s = LANES*g + j is bit j of the words of lane group g.
    lanes = np.zeros((groups * LANES, seq_len, input_width), dtype=np.uint8)
    lanes[:n_seq] = x
    packed = np.packbits(
        lanes.reshape(groups, LANES, seq_len, input_width), axis=1, bitorder="little"
    )
    words = np.ascontiguousarray(packed.transpose(2, 0, 3, 1)).view("<u4")[..., 0]
    tiled = np.tile(words, (1, 1, len(positions) // input_width))  # (T, groups, R*L_in)

    stepper = LaneStepper(rule, groups, width)
    history = np.empty((seq_len, iterations, groups, width), dtype=np.uint32)
    for t in range(seq_len):
        stepper.state[:, positions] = tiled[t]
        for k in range(iterations):
            stepper.advance(history[t, k])

    # Byte b of a word holds lanes 8b..8b+7: split the words into contiguous
    # (T, I, width) byte planes, then peel one bit per sequence off them.
    as_bytes = history.astype("<u4", copy=False).view(np.uint8)
    planes = np.ascontiguousarray(
        as_bytes.reshape(seq_len, iterations, groups, width, 4).transpose(2, 4, 0, 1, 3)
    )
    features = np.empty((n_seq, seq_len, iterations * width), dtype=np.uint8)
    shifted = np.empty(planes.shape[2:], dtype=np.uint8)
    for s in range(n_seq):
        group, lane = divmod(s, LANES)
        byte, bit = divmod(lane, 8)
        np.right_shift(planes[group, byte], bit, out=shifted)
        np.bitwise_and(shifted, 1, out=features[s].reshape(shifted.shape))
    return features


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
