"""Batched attention and metric kernels against per-item references.

The sweep scores many rankings at once: every kernel takes a leading batch
axis. The references below are the per-item loops the kernels replace,
written with plain Python floats; each row of a batched call must equal
its reference bit for bit, and the model identities must hold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfair import (
    AlignmentTable,
    BrowsingModelSpec,
    DistanceSpec,
    RelevanceJudgments,
    RenderPlan,
    awrf,
    continuations,
    eel,
    group_exposure,
    target_exposure,
)
from gridfair.browse import ADJUSTMENTS, BASES, WITHIN_ROW_MODES, position_weights
from gridfair.layout import HORIZONTAL, REDUCTIONS, VERTICAL, WRAPPED_GRID
from gridfair.metrics import ideal_exposure

from util import make_schema, prefix_rows, tier_loop_exposure, tier_loop_target


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
GRADES = st.sampled_from([0.0, 1.0, 2.0, 3.0])


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
def padded_batches(draw):
    """A shape, and rankings that each fill its first k cells with grades."""
    lengths = draw(row_lengths())
    n = int(lengths.sum())
    shown = draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    grades = [
        np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=k, max_size=k)))
        for k in shown
    ]
    spec = BrowsingModelSpec(
        base=draw(st.sampled_from(BASES)),
        adjustment=draw(st.sampled_from(ADJUSTMENTS)),
        gamma=draw(PROBABILITIES),
        beta=draw(BETAS),
        satisfaction=draw(PROBABILITIES),
        within_row=draw(st.sampled_from(WITHIN_ROW_MODES)),
    )
    return lengths, grades, spec


@settings(max_examples=300, deadline=None)
@given(padded_batches())
def test_padding_with_unit_continuations_keeps_each_rows_weights(case):
    """Rankings shorter than the shape, padded with grade 0 and then with
    continuation 1.0, get their own shape's weights bit for bit: the cap
    of each row is unchanged, and every product over real cells is."""
    lengths, grades, spec = case
    n = int(lengths.sum())
    padded = np.zeros((len(grades), n))
    for row, g in zip(padded, grades):
        row[: len(g)] = g
    cont = continuations(padded, spec)
    for row, g in zip(cont, grades):
        row[len(g) :] = 1.0
    weights = position_weights(cont, lengths, spec)
    for row, g in zip(weights, grades):
        alone = position_weights(continuations(g, spec), prefix_rows(lengths, len(g)), spec)
        assert np.array_equal(row[: len(g)], alone), (row[: len(g)], alone)


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


@st.composite
def ideal_batches(draw):
    """Best-first grade rows of unequal length, padded with -inf, under a
    leading batch axis of slot weights (padding weighs anything), with
    their membership rows."""
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    width = max(lengths)
    batch = draw(st.integers(1, 3))
    # Few grade values give long tiers; many give rows of many tiers.
    values = draw(st.sampled_from([GRADES, st.integers(0, 11).map(float)]))
    grades = np.full((len(lengths), width), -np.inf)
    for q, k in enumerate(lengths):
        grades[q, :k] = sorted(draw(st.lists(values, min_size=k, max_size=k)), reverse=True)
    size = batch * grades.size
    weights = np.array(draw(st.lists(PROBABILITIES, min_size=size, max_size=size)))
    weights = weights.reshape(batch, *grades.shape)
    raw = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=grades.size * 3, max_size=grades.size * 3))
    ).reshape(*grades.shape, 3)
    raw[..., 2] += 1e-3  # every row has some membership mass
    return lengths, weights, grades, raw / raw.sum(axis=-1, keepdims=True)


@settings(max_examples=200, deadline=None)
@given(ideal_batches())
def test_ideal_exposure_over_padded_rows_equals_the_tier_loop(case):
    lengths, weights, grades, members = case
    batched = ideal_exposure(weights, grades, members)
    for b, q in np.ndindex(batched.shape[:2]):
        k = lengths[q]
        oracle = tier_loop_exposure(weights[b, q, :k], grades[q, :k], members[q, :k])
        np.testing.assert_allclose(batched[b, q], oracle, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(ideal_batches())
def test_ideal_exposure_rows_equal_single_rankings(case):
    """Each batched row equals that row alone, and the row without its
    padding, bit for bit."""
    lengths, weights, grades, members = case
    batched = ideal_exposure(weights, grades, members)
    for b, q in np.ndindex(batched.shape[:2]):
        k = lengths[q]
        alone = ideal_exposure(weights[b, q], grades[q], members[q])
        assert np.array_equal(batched[b, q], alone)
        unpadded = ideal_exposure(weights[b, q, :k], grades[q, :k], members[q, :k])
        assert np.array_equal(batched[b, q], unpadded)


PLANS = st.one_of(
    st.just(RenderPlan(VERTICAL, 1)),
    st.just(RenderPlan(HORIZONTAL, 0)),
    st.builds(RenderPlan, st.just(WRAPPED_GRID), st.integers(1, 4)),
    st.builds(
        lambda columns, extra, reduction: RenderPlan(
            WRAPPED_GRID, columns, reduction, columns + extra
        ),
        st.integers(1, 4),
        st.integers(0, 3),
        st.sampled_from(REDUCTIONS),
    ),
)
SPECS = st.builds(
    BrowsingModelSpec, base=st.sampled_from(BASES), adjustment=st.sampled_from(ADJUSTMENTS)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(GRADES, min_size=1, max_size=14),
    PLANS,
    SPECS,
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_target_exposure_equals_the_tier_loop(grades, plan, spec, as_callable, random):
    """Random grades with ties (grade 0 partly unjudged), mixed
    membership, every plan kind and every browsing model, through a plan
    and through its rendering callable."""
    docs = [f"d{i}" for i in range(len(grades))]
    random.shuffle(docs)
    judged = {("q1", d): g for d, g in zip(docs, grades) if g or random.random() < 0.5}
    rel = RelevanceJudgments(judged)
    schema = make_schema("A", "B")
    vectors = {}
    for d in docs:
        raw = [random.random() + 1e-3 for _ in range(schema.size)]
        vectors[d] = [x / sum(raw) for x in raw]
    table = AlignmentTable.from_weights(schema, vectors)
    layout = plan.render if as_callable else plan
    np.testing.assert_allclose(
        target_exposure("q1", docs, rel, layout, spec, table),
        tier_loop_target("q1", docs, rel, plan, spec, table),
        rtol=0,
        atol=1e-12,
    )
