import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reca.encoding import generate_mappings
from reca.memory_task import MESSAGE_LEN, all_patterns
from reca.reservoir import ReservoirParams, run_sequences
from reference import naive_step


def params(rule=90, iterations=2, mappings=2, diffuse=10, input_width=4, seed=0):
    return ReservoirParams(rule, iterations, mappings, diffuse, input_width, seed)


def random_inputs(rng, t, width=4):
    return rng.integers(0, 2, size=(1, t, width), dtype=np.uint8)


def naive_evolve(state, rule, iterations):
    """``iterations`` rows of ``reference.naive_step`` from ``state``, seed excluded."""
    rows = []
    for _ in range(iterations):
        state = naive_step(state, rule)
        rows.append(state)
    return np.stack(rows)


def positions(p, maps):
    """The automaton cell each (segment, input bit) pair of ``maps`` writes, in order."""
    return (maps + p.diffuse_length * np.arange(p.mapping_count)[:, None]).ravel()


def encoded(bits, p, maps):
    """The input written onto a blank automaton."""
    state = np.zeros(p.state_width, dtype=np.uint8)
    state[positions(p, maps)] = np.tile(bits, p.mapping_count)
    return state


def test_single_step_matches_evolve_of_initial_encoding():
    p = params(rule=110, iterations=3)
    maps = generate_mappings(p)
    x = np.array([[[1, 0, 0, 1]]], dtype=np.uint8)
    features, finals = run_sequences(x, p, maps)
    expected = naive_evolve(encoded(x[0, 0], p, maps), 110, 3)
    assert features.shape == (1, 1, p.feature_length)
    assert np.array_equal(features[0, 0], expected.ravel())
    assert np.array_equal(finals[0], expected[-1])


def test_rule_0_gives_all_zero_features():
    p = params(rule=0, iterations=4)
    maps = generate_mappings(p)
    rng = np.random.default_rng(1)
    features, finals = run_sequences(random_inputs(rng, 6), p, maps)
    assert not features.any()
    assert not finals.any()


def test_feature_length_matches_paper_example():
    p = params(rule=90, iterations=8, mappings=8, diffuse=40)
    assert p.feature_length == 2560
    maps = generate_mappings(p)
    rng = np.random.default_rng(2)
    features, _ = run_sequences(random_inputs(rng, 3), p, maps)
    assert features.shape == (1, 3, 2560)


def test_recurrence_seeds_from_previous_final_state():
    p = params(rule=110, iterations=2)
    maps = generate_mappings(p)
    rng = np.random.default_rng(3)
    x = random_inputs(rng, 4)
    features, _ = run_sequences(x, p, maps)

    state = np.zeros(p.state_width, dtype=np.uint8)
    expected = []
    for t in range(4):
        state[positions(p, maps)] = np.tile(x[0, t], p.mapping_count)
        rows = naive_evolve(state, 110, p.iterations)
        expected.append(rows.ravel())
        state = rows[-1].copy()
    assert np.array_equal(features[0], np.stack(expected))


def test_determinism():
    p = params(rule=150, iterations=3, mappings=3, seed=9)
    maps = generate_mappings(p)
    rng = np.random.default_rng(4)
    x = random_inputs(rng, 5)
    f1, s1 = run_sequences(x, p, maps)
    f2, s2 = run_sequences(x, p, maps)
    assert np.array_equal(f1, f2) and np.array_equal(s1, s2)


def test_batched_sequences_match_individual_runs():
    p = params(rule=110, iterations=2, mappings=2)
    maps = generate_mappings(p)
    rng = np.random.default_rng(5)
    batch = rng.integers(0, 2, size=(5, 7, 4), dtype=np.uint8)
    features, finals = run_sequences(batch, p, maps)
    for i in range(5):
        f, s = run_sequences(batch[i : i + 1], p, maps)
        assert np.array_equal(features[i], f[0])
        assert np.array_equal(finals[i], s[0])


def test_record_space_time_single_step_equals_evolve():
    # A sequence's space-time grid is its features as (T*I, R*L_d) rows.
    p = params(rule=30, iterations=3)
    maps = generate_mappings(p)
    x = np.array([[[0, 1, 1, 0]]], dtype=np.uint8)
    features, _ = run_sequences(x, p, maps)
    grid = features[0].reshape(-1, p.state_width)
    assert np.array_equal(grid, naive_evolve(encoded(x[0, 0], p, maps), 30, 3))


def test_figure_scale_grid_dimensions():
    p = params(rule=90, iterations=8, mappings=8, diffuse=40)
    maps = generate_mappings(p)
    rng = np.random.default_rng(7)
    features, _ = run_sequences(random_inputs(rng, 30), p, maps)
    assert features[0].reshape(-1, p.state_width).shape == (240, 320)


def test_dimension_mismatches_rejected():
    p = params()
    maps = generate_mappings(p)
    with pytest.raises(ValueError):
        run_sequences(np.zeros((1, 3, 5), dtype=np.uint8), p, maps)
    with pytest.raises(ValueError):
        run_sequences(np.zeros((3, 4), dtype=np.uint8), p, maps)
    wrong = generate_mappings(params(mappings=3))
    with pytest.raises(ValueError):
        run_sequences(np.zeros((1, 3, 4), dtype=np.uint8), p, wrong)


def test_params_validation():
    for bad in (dict(iterations=0), dict(mappings=0), dict(diffuse=3), dict(input_width=0)):
        with pytest.raises(ValueError):
            params(**bad)


def test_non_binary_or_empty_inputs_rejected():
    p = params()
    maps = generate_mappings(p)
    with pytest.raises(ValueError):
        run_sequences(np.full((1, 3, 4), 2, dtype=np.uint8), p, maps)
    with pytest.raises(ValueError):
        run_sequences(np.zeros((1, 0, 4), dtype=np.uint8), p, maps)


@pytest.mark.parametrize(
    "value,dtype", [(256, np.int64), (-1, np.int64), (0.5, np.float64)]
)
def test_inputs_other_than_0_or_1_are_rejected_before_any_cast(value, dtype):
    # 256 and -1 wrap to 0 and 255 in uint8, and 0.5 truncates to 0.
    p = params()
    x = np.zeros((1, 3, 4), dtype=dtype)
    x[0, 1, 2] = value
    with pytest.raises(ValueError, match="binary"):
        run_sequences(x, p, generate_mappings(p))


def naive_run(x, p, maps):
    """Step-by-step reservoir over reference.naive_step, one sequence at a time."""
    features = np.empty((x.shape[0], x.shape[1], p.feature_length), dtype=np.uint8)
    finals = np.empty((x.shape[0], p.state_width), dtype=np.uint8)
    for s in range(x.shape[0]):
        state = np.zeros(p.state_width, dtype=np.uint8)
        for t in range(x.shape[1]):
            state[positions(p, maps)] = np.tile(x[s, t], p.mapping_count)
            for k in range(p.iterations):
                state = naive_step(state, p.rule)
                features[s, t, k * p.state_width : (k + 1) * p.state_width] = state
        finals[s] = state
    return features, finals


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    rule=st.integers(0, 255),
    n_seq=st.sampled_from([1, 31, 32, 33, 70]),
    iterations=st.integers(1, 3),
    mappings=st.integers(1, 3),
    input_width=st.integers(1, 4),
    extra_diffuse=st.integers(0, 5),
    seq_len=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_packed_lanes_match_naive_stepper(
    rule, n_seq, iterations, mappings, input_width, extra_diffuse, seq_len, seed
):
    diffuse = max(input_width + extra_diffuse, 3)
    p = ReservoirParams(rule, iterations, mappings, diffuse, input_width, seed)
    maps = generate_mappings(p)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n_seq, seq_len, input_width), dtype=np.uint8)
    features, finals = run_sequences(x, p, maps)
    expected_features, expected_finals = naive_run(x, p, maps)
    assert features.dtype == np.uint8 and finals.dtype == np.uint8
    assert np.array_equal(features, expected_features)
    assert np.array_equal(finals, expected_finals)


def superposition_holds(rule):
    """Whether every pattern's features are F_0 xor the sum of m_k (F_{e_k} xor F_0).

    F_m are the features of the task pattern whose message is m, e_k the
    message with only bit k set. Writing an input bit and its complement is
    affine in m over GF(2), so for an affine rule all 32 feature arrays
    follow from the six of the messages 0 and e_k.
    """
    p = params(rule=rule, iterations=2, mappings=4, diffuse=10)
    inputs = np.stack([task.inputs for task in all_patterns(6)])
    features, _ = run_sequences(inputs, p, generate_mappings(p))
    messages = inputs[:, :MESSAGE_LEN, 0]
    index = {tuple(m): s for s, m in enumerate(messages.tolist())}
    zero = features[index[(0,) * MESSAGE_LEN]]
    units = features[[index[tuple(e)] for e in np.eye(MESSAGE_LEN, dtype=int).tolist()]]
    terms = messages[:, :, None, None] * (units ^ zero)[None]
    return np.array_equal(features, zero ^ np.bitwise_xor.reduce(terms, axis=1))


@pytest.mark.parametrize("rule", [90, 150, 60, 102, 105, 153, 165, 195])
def test_affine_rules_superpose_over_gf2(rule):
    # An oracle of the packed reservoir that does not step any row itself.
    assert superposition_holds(rule)


@pytest.mark.parametrize("rule", [180, 22])
def test_superposition_fails_for_non_affine_rules(rule):
    assert not superposition_holds(rule)
