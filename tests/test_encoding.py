import numpy as np
import pytest

from reca.encoding import generate_mappings
from reca.reservoir import ReservoirParams, run_sequences
from reference import naive_step


def layer(input_width, diffuse_length, mapping_count, seed):
    """A ReservoirParams of fixed rule and I; only what the mappings read varies."""
    return ReservoirParams(90, 1, mapping_count, diffuse_length, input_width, seed)


def positions(maps, diffuse_length):
    """The automaton cell each (segment, input bit) pair of ``maps`` writes, in order."""
    maps = np.asarray(maps)
    return (maps + diffuse_length * np.arange(len(maps))[:, None]).ravel()


def run(inputs, maps, diffuse_length, rule=204):
    """``run_sequences`` features at I = 1, shape (n, T, R*L_d).

    Rule 204 copies every cell, so its features are the automaton just after
    each input was written: what the overwrite encoder made of it.
    """
    mapping_count, input_width = np.shape(maps)
    p = ReservoirParams(rule, 1, mapping_count, diffuse_length, input_width, seed=0)
    features, _ = run_sequences(np.asarray(inputs, dtype=np.uint8), p, maps)
    return features


def test_generate_full_width_map_is_permutation():
    maps = generate_mappings(layer(4, 4, 1, seed=0))
    assert sorted(maps[0].tolist()) == [0, 1, 2, 3]


def test_generate_shapes_and_bounds():
    maps = generate_mappings(layer(4, 10, 2, seed=5))
    assert maps.shape == (2, 4) and maps.dtype == np.int64
    for row in maps:
        assert len(set(row.tolist())) == 4
        assert row.min() >= 0 and row.max() < 10


@pytest.mark.parametrize(
    "params,expected",
    [
        (layer(4, 10, 2, seed=5), [[4, 0, 8, 6], [0, 2, 9, 7]]),
        (layer(4, 40, 3, seed=123), [[25, 23, 0, 2], [6, 38, 12, 13], [10, 16, 30, 32]]),
        (layer(3, 4, 2, seed=0), [[2, 3, 1], [3, 2, 0]]),
    ],
)
def test_generate_draw_is_pinned(params, expected):
    # The draw is part of every verdict: a change of generator moves them all.
    maps = generate_mappings(params)
    assert isinstance(maps, np.ndarray) and maps.dtype == np.int64
    assert maps.tolist() == expected


def test_generate_is_deterministic_in_seed():
    params = layer(4, 40, 8, seed=123)
    assert np.array_equal(generate_mappings(params), generate_mappings(params))
    other = generate_mappings(layer(4, 40, 8, seed=124))
    assert not np.array_equal(generate_mappings(params), other)
    # the rule and I describe the reservoir, not the mappings
    same = generate_mappings(ReservoirParams(30, 3, 8, 40, 4, 123))
    assert np.array_equal(generate_mappings(params), same)


def test_generate_rejects_too_small_segment():
    with pytest.raises(ValueError):
        layer(5, 4, 1, seed=0)


def test_encode_initial_all_zero_input():
    maps = generate_mappings(layer(4, 10, 2, seed=1))
    state = run(np.zeros((1, 1, 4)), maps, 10)[0, 0]
    assert state.shape == (20,)
    assert not state.any()


def test_encode_initial_places_bits_at_mapped_positions():
    state = run([[[1, 0]]], [[2, 0]], 4)[0, 0]
    assert state.tolist() == [0, 0, 1, 0]


def test_encode_initial_segment_budget():
    maps = generate_mappings(layer(4, 10, 2, seed=9))
    state = run(np.ones((1, 1, 4)), maps, 10)[0, 0]
    assert state.shape == (20,)
    assert state[:10].sum() == 4 and state[10:].sum() == 4


def test_combine_overwrite_writes_zeros_too():
    states = run([[[1, 1], [0, 0]]], [[2, 0]], 4)[0]
    assert states[0].tolist() == [1, 0, 1, 0]
    assert states[1].tolist() == [0, 0, 0, 0]


def test_combine_overwrite_on_zeros_equals_encode_initial():
    # An input written after an all-zero step lands on a blank automaton,
    # exactly like the first input of a sequence.
    rng = np.random.default_rng(11)
    maps = generate_mappings(layer(4, 15, 3, seed=2))
    x = rng.integers(0, 2, size=(20, 1, 4), dtype=np.uint8)
    after_zeros = run(np.concatenate([np.zeros_like(x), x], axis=1), maps, 15)[:, 1]
    assert np.array_equal(after_zeros, run(x, maps, 15)[:, 0])


def test_combine_overwrite_idempotent_when_bits_match():
    # One mapping, so the written bits can all agree with the previous state.
    rng = np.random.default_rng(12)
    maps = generate_mappings(layer(4, 12, 1, seed=3))
    x = rng.integers(0, 2, size=(1, 1, 4), dtype=np.uint8)
    prev = run(x, maps, 12, rule=30)[0, 0]
    same = prev[positions(maps, 12)][None, None]
    both = run(np.concatenate([x, same], axis=1), maps, 12, rule=30)[0]
    assert np.array_equal(both[1], naive_step(prev, 30))


def test_combine_overwrite_never_touches_off_map_cells():
    rng = np.random.default_rng(13)
    maps = generate_mappings(layer(4, 20, 2, seed=4))
    x = rng.integers(0, 2, size=(10, 2, 4), dtype=np.uint8)
    features = run(x, maps, 20, rule=30)
    for prev, x1, out in zip(features[:, 0], x[:, 1], features[:, 1]):
        written = prev.copy()
        written[positions(maps, 20)] = np.tile(x1, len(maps))
        assert np.array_equal(out, naive_step(written, 30))


def test_encode_initial_rejects_length_mismatch():
    p = layer(4, 10, 2, seed=1)
    with pytest.raises(ValueError, match=r"inputs must have shape \(n, T, 4\)"):
        run_sequences(np.zeros((1, 1, 3), dtype=np.uint8), p, generate_mappings(p))


def test_encode_initial_is_injective():
    maps = generate_mappings(layer(4, 10, 2, seed=6))
    x = np.array(
        [[[(value >> j) & 1 for j in range(4)]] for value in range(16)], dtype=np.uint8
    )
    assert len({state.tobytes() for state in run(x, maps, 10)[:, 0]}) == 16


@pytest.mark.parametrize(
    "maps,message",
    [
        ([[2, 0], [1, 3]], r"shape \(R, L_in\) = \(1, 2\)"),  # two rows for R = 1
        ([[2, 0, 1]], r"shape \(R, L_in\) = \(1, 2\)"),  # three bits for L_in = 2
        ([[2, 4]], r"lie in \[0, diffuse_length\)"),  # 4 = L_d
        ([[-1, 2]], r"lie in \[0, diffuse_length\)"),
        ([[1, 1]], "distinct"),
        (np.array([[2.7, 0.2]]), "integers"),  # would truncate to [[2, 0]]
    ],
    ids=["rows", "bits", "too-large", "negative", "repeated", "float"],
)
def test_run_sequences_rejects_a_bad_draw(maps, message):
    # A hand-built draw is input too: (R, L_in) integers in [0, L_d), distinct in a row.
    p = ReservoirParams(204, 1, 1, 4, 2, seed=0)
    with pytest.raises(ValueError, match=message):
        run_sequences(np.zeros((1, 1, 2), dtype=np.uint8), p, maps)
