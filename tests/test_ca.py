import numpy as np
import pytest

from reca import ca
from reca.ca import (
    anf_terms,
    complement_rule,
    lambda_param,
    make_rule,
    mirror_rule,
    rule_from_table,
    step_rows,
)
from reference import naive_step


def step(state, rule):
    """One update of a single row, through the batched ``step_rows``."""
    return step_rows(np.asarray(state)[None], rule)[0]


def evolve(state, rule, iterations):
    """The ``iterations`` rows that ``ca.evolve`` evolves from ``state``.

    One time step whose input fills the whole automaton, so the encoded
    state is ``state`` itself.
    """
    width = len(state)
    features = ca.evolve(np.asarray(state)[None, None], np.arange(width), rule, iterations, width)
    return features.reshape(iterations, width)


def test_make_rule_110_table():
    rule = make_rule(110)
    # (01101110)_2: neighborhood 110 -> 1, 111 -> 0, 000 -> 0
    assert rule.table[0b110] == 1
    assert rule.table[0b111] == 0
    assert rule.table[0b000] == 0
    assert rule.table.tolist() == [0, 1, 1, 1, 0, 1, 1, 0]


def test_make_rule_extremes():
    assert make_rule(0).table.tolist() == [0] * 8
    assert make_rule(255).table.tolist() == [1] * 8


def test_make_rule_round_trip():
    for number in range(256):
        assert rule_from_table(make_rule(number).table).number == number


@pytest.mark.parametrize("number", [-1, 256, 1000])
def test_make_rule_rejects_out_of_range(number):
    with pytest.raises(ValueError):
        make_rule(number)


def test_step_rule_90():
    out = step(np.array([0, 0, 1, 0, 0], dtype=np.uint8), make_rule(90))
    assert out.tolist() == [0, 1, 0, 1, 0]


def test_step_rule_0_goes_quiescent():
    rng = np.random.default_rng(0)
    state = rng.integers(0, 2, size=17, dtype=np.uint8)
    assert step(state, make_rule(0)).tolist() == [0] * 17


def test_step_rule_204_is_identity():
    rule = make_rule(204)
    # rule 204 outputs the center bit for all 8 neighborhoods
    for n in range(8):
        assert rule.table[n] == (n >> 1) & 1
    state = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert step(state, rule).tolist() == [1, 0, 1, 1]


def test_step_rejects_narrow_state():
    with pytest.raises(ValueError):
        step_rows(np.array([[1, 0]], dtype=np.uint8), make_rule(90))
    with pytest.raises(ValueError):
        step_rows(np.array([0, 1, 0, 1], dtype=np.uint8), make_rule(90))


def test_step_does_not_modify_input():
    states = np.array([[0, 0, 1, 0, 0], [1, 1, 0, 1, 0]], dtype=np.uint8)
    step_rows(states, make_rule(110))
    assert states.tolist() == [[0, 0, 1, 0, 0], [1, 1, 0, 1, 0]]


def test_step_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for number in range(256):
        rule = make_rule(number)
        for _ in range(5):
            width = int(rng.integers(3, 257))
            state = rng.integers(0, 2, size=width, dtype=np.uint8)
            assert np.array_equal(step(state, rule), naive_step(state, number))


def test_step_rows_matches_step():
    # Rows are independent automata: each wraps on its own ring. 31, 33 and
    # 70 rows fill one, two and three 32-lane groups, the last one partly.
    rng = np.random.default_rng(7)
    for n_rows in (1, 31, 33, 70):
        states = rng.integers(0, 2, size=(n_rows, 11), dtype=np.uint8)
        for number in range(256):
            batched = step_rows(states, make_rule(number))
            expected = np.stack([naive_step(row, number) for row in states])
            assert np.array_equal(batched, expected), (n_rows, number)


def test_step_rows_rejects_non_binary_states():
    states = np.array([[0, 1, 2, 0, 1]], dtype=np.uint8)
    with pytest.raises(ValueError, match="binary"):
        step_rows(states, make_rule(90))


def test_evolve_single_iteration():
    state = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    rule = make_rule(30)
    out = evolve(state, rule, 1)
    assert out.shape == (1, 5)
    assert np.array_equal(out[0], step(state, rule))


def test_evolve_rule_90_two_iterations():
    out = evolve(np.array([0, 0, 1, 0, 0], dtype=np.uint8), make_rule(90), 2)
    assert out.tolist() == [[0, 1, 0, 1, 0], [1, 0, 0, 0, 1]]


def test_evolve_rule_0():
    out = evolve(np.array([1, 1, 0, 1], dtype=np.uint8), make_rule(0), 3)
    assert out.tolist() == [[0, 0, 0, 0]] * 3


def test_evolve_rejects_zero_iterations():
    with pytest.raises(ValueError):
        evolve(np.array([0, 1, 0], dtype=np.uint8), make_rule(90), 0)


def test_evolve_excludes_seed_state():
    state = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    out = evolve(state, make_rule(204), 2)
    # rule 204 keeps the state; all rows equal the seed but the seed row
    # itself is not prepended
    assert out.shape[0] == 2
    assert np.array_equal(out[0], state)


def test_lambda_values():
    assert lambda_param(make_rule(110)) == 0.625
    assert lambda_param(make_rule(0)) == 0.0
    assert lambda_param(make_rule(255)) == 1.0


def test_mirror_known_pairs():
    assert mirror_rule(make_rule(102)).number == 60
    assert mirror_rule(make_rule(204)).number == 204
    assert mirror_rule(make_rule(90)).number == 90


def test_complement_known_pairs():
    assert complement_rule(make_rule(102)).number == 153
    assert mirror_rule(complement_rule(make_rule(102))).number == 195
    assert complement_rule(make_rule(0)).number == 255


def test_mirror_and_complement_are_commuting_involutions():
    for number in range(256):
        rule = make_rule(number)
        assert mirror_rule(mirror_rule(rule)).number == number
        assert complement_rule(complement_rule(rule)).number == number
        assert (
            mirror_rule(complement_rule(rule)).number
            == complement_rule(mirror_rule(rule)).number
        )


def test_mirror_commutes_with_state_reversal():
    rng = np.random.default_rng(3)
    for number in range(0, 256, 7):
        rule = make_rule(number)
        mirrored = mirror_rule(rule)
        for _ in range(5):
            state = rng.integers(0, 2, size=21, dtype=np.uint8)
            assert np.array_equal(
                step(state, rule)[::-1], step(state[::-1], mirrored)
            )


def test_complement_commutes_with_state_inversion():
    rng = np.random.default_rng(4)
    for number in range(0, 256, 7):
        rule = make_rule(number)
        comp = complement_rule(rule)
        for _ in range(5):
            state = rng.integers(0, 2, size=21, dtype=np.uint8)
            assert np.array_equal(1 - step(state, rule), step(1 - state, comp))


def test_step_is_deterministic():
    state = np.array([1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)
    rule = make_rule(150)
    assert np.array_equal(step(state, rule), step(state, rule))


@pytest.mark.parametrize(
    "number,terms",
    [(90, (1, 4)), (150, (1, 2, 4)), (60, (2, 4)), (102, (1, 2)),
     (165, (0, 1, 4)), (105, (0, 1, 2, 4)), (195, (0, 2, 4)), (153, (0, 1, 2)),
     (0, ()), (255, (0,)), (204, (2,))],
)
def test_anf_of_linear_rules_and_complements(number, terms):
    assert anf_terms(make_rule(number)) == terms
