"""Batched attention and metric kernels against per-item references.

The sweep scores many rankings at once: every kernel takes a leading batch
axis. The references below are the per-item loops the kernels replace,
written with plain Python floats; each row of a batched call must equal
its reference bit for bit, and the model identities must hold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfair import BrowsingModelSpec, DistanceSpec, awrf, continuations, eel, group_exposure
from gridfair.browse import ADJUSTMENTS, WITHIN_ROW_MODES, position_weights
from gridfair.metrics import grade_tiers, tier_means

from util import make_schema


def _clip(value):
    if value > 1.0:
        value = 1.0
    if value < 0.0:
        value = 0.0
    return value


def reference_base(cont):
    out, w = [], 1.0
    for c in cont:
        out.append(_clip(w))
        w *= c
    return out


def reference_row_skip(cont, row_lengths, gamma, prefix):
    out = []
    scan = skip = 1.0
    pos = 0
    for r, ln in enumerate(row_lengths):
        reach = 1.0 if r == 0 else scan + skip
        row_prod = 1.0
        if prefix:
            for c in cont[pos : pos + ln]:
                out.append(reach * row_prod)
                row_prod *= c
        else:
            for c in cont[pos : pos + ln]:
                row_prod *= c
            out += [reach * row_prod] * ln
        scan *= (1.0 - gamma) * row_prod
        skip *= gamma
        pos += ln
    return [_clip(w) for w in out]


def reference_slow_decay(cont, row_lengths, beta):
    out = []
    v = 1.0
    pos = 0
    for r, ln in enumerate(row_lengths):
        if r > 0:
            v *= beta
        for c in cont[pos : pos + ln]:
            out.append(_clip(v))
            v *= c
            if v != v:  # inf boost times zero continuation: the zero wins
                v = 0.0
        pos += ln
    return out


def reference_weights(cont, row_lengths, spec):
    cont = [float(c) for c in cont]
    row_lengths = [int(ln) for ln in row_lengths]
    if spec.adjustment == "row-skip":
        return reference_row_skip(cont, row_lengths, spec.gamma, spec.within_row == "prefix")
    if spec.adjustment == "slow-decay":
        return reference_slow_decay(cont, row_lengths, spec.beta)
    return reference_base(cont)


PROBABILITIES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
BETAS = st.one_of(st.sampled_from([1.0, 1.9, 1e300]), st.floats(1.0, 1e300))


@st.composite
def row_lengths(draw):
    """Wrapped rows with a ragged last row, or any row lengths."""
    if draw(st.booleans()):
        n, c = draw(st.integers(0, 30)), draw(st.integers(1, 6))
        lengths = [c] * (n // c) + ([n % c] if n % c else [])
    else:
        lengths = draw(st.lists(st.integers(1, 6), max_size=8))
    return np.array(lengths, dtype=np.int64)


@st.composite
def batches(draw):
    lengths = draw(row_lengths())
    n = int(lengths.sum())
    rows = draw(st.integers(1, 4))
    values = draw(st.lists(PROBABILITIES, min_size=rows * n, max_size=rows * n))
    cont = np.array(values).reshape(rows, n)
    spec = BrowsingModelSpec(
        adjustment=draw(st.sampled_from(ADJUSTMENTS)),
        gamma=draw(PROBABILITIES),
        beta=draw(BETAS),
        within_row=draw(st.sampled_from(WITHIN_ROW_MODES)),
    )
    return cont, lengths, spec


@settings(max_examples=300, deadline=None)
@given(batches())
def test_every_row_equals_the_per_item_reference(case):
    cont, lengths, spec = case
    batched = position_weights(cont, lengths, spec)
    assert batched.shape == cont.shape
    for row, weights in zip(cont, batched):
        reference = np.array(reference_weights(row, lengths, spec))
        assert np.array_equal(weights, reference), (weights, reference)
        assert np.array_equal(position_weights(row, lengths, spec), reference)


@settings(max_examples=150, deadline=None)
@given(batches())
def test_weights_are_probabilities(case):
    cont, lengths, spec = case
    weights = position_weights(cont, lengths, spec)
    assert np.all((weights >= 0.0) & (weights <= 1.0))


@settings(max_examples=150, deadline=None)
@given(batches())
def test_prefix_row_skip_without_skipping_is_the_base(case):
    cont, lengths, _ = case
    spec = BrowsingModelSpec(adjustment="row-skip", gamma=0.0, within_row="prefix")
    np.testing.assert_allclose(
        position_weights(cont, lengths, spec),
        position_weights(cont, lengths, BrowsingModelSpec()),
        rtol=1e-12,
        atol=1e-300,
    )


@settings(max_examples=150, deadline=None)
@given(batches())
def test_unit_boost_is_the_base(case):
    cont, lengths, _ = case
    spec = BrowsingModelSpec(adjustment="slow-decay", beta=1.0)
    assert np.array_equal(
        position_weights(cont, lengths, spec),
        position_weights(cont, lengths, BrowsingModelSpec()),
    )


@settings(max_examples=100, deadline=None)
@given(batches(), st.sampled_from([0.0, 0.5, 1.0]))
def test_all_zero_grades_make_cascade_geometric(case, satisfaction):
    cont, lengths, spec = case
    grades = np.zeros(cont.shape)
    cascade = BrowsingModelSpec(
        base="cascade", adjustment=spec.adjustment, gamma=spec.gamma, beta=spec.beta,
        satisfaction=satisfaction, within_row=spec.within_row,
    )
    geometric = BrowsingModelSpec(
        adjustment=spec.adjustment, gamma=spec.gamma, beta=spec.beta,
        within_row=spec.within_row,
    )
    assert np.array_equal(
        position_weights(continuations(grades, cascade), lengths, cascade),
        position_weights(continuations(grades, geometric), lengths, geometric),
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_continuations_cap_each_row_by_its_own_maximum(rows, data):
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    grades = data.draw(st.lists(values, min_size=rows * 5, max_size=rows * 5))
    grades = np.array(grades).reshape(rows, 5)
    spec = BrowsingModelSpec(base="cascade", satisfaction=1.0)
    batched = continuations(grades, spec)
    for row, cont in zip(grades, batched):
        assert np.array_equal(cont, continuations(row, spec))


@st.composite
def exposures(draw):
    """Weights of a batch of rankings and their membership rows."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    weights = np.array(draw(st.lists(PROBABILITIES, min_size=rows * n, max_size=rows * n)))
    raw = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=rows * n * 3, max_size=rows * n * 3))
    ).reshape(rows, n, 3)
    raw[..., 2] += 1e-3  # every row has some membership mass
    return weights.reshape(rows, n), raw / raw.sum(axis=-1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(exposures())
def test_group_exposure_rows_equal_single_rankings_and_conserve_weight(case):
    weights, members = case
    batched = group_exposure(weights, members)
    for w, mat, expo in zip(weights, members, batched):
        assert np.array_equal(expo, group_exposure(w, mat))
    np.testing.assert_allclose(batched.sum(axis=-1), weights.sum(axis=-1), rtol=1e-12, atol=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.floats(1e-3, 5.0), min_size=3, max_size=3), min_size=1, max_size=5),
    st.sampled_from(["l1", "l2", "signed-two-group"]),
    st.booleans(),
)
def test_awrf_and_eel_rows_equal_single_rankings(rows, kind, exclude_unknown):
    schema = make_schema("A", "B")
    expo = np.array(rows)
    target = np.array([0.5, 0.3, 0.2])
    delta = DistanceSpec(kind=kind)
    batched = awrf(expo, target, delta, schema, exclude_unknown)
    ideal = expo[::-1].copy()
    distances = eel(expo, ideal)
    for row, score, other, distance in zip(expo, batched, ideal, distances):
        assert score == awrf(row, target, delta, schema, exclude_unknown)
        assert distance == eel(row, other)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=12),
    st.integers(1, 4),
)
def test_tier_means_rows_equal_single_rankings(grades, rows):
    grades = np.sort(np.array(grades))[::-1]
    tiers = grade_tiers(grades)
    slot_weight = np.random.default_rng(len(grades)).random((rows, len(grades)))
    batched = tier_means(slot_weight, tiers)
    for row, means in zip(slot_weight, batched):
        assert np.array_equal(means, tier_means(row, tiers))
