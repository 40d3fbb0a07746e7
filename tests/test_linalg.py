from __future__ import annotations

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import _linalg
from framelab._linalg import canonical_phases, full_column_rank, null_spaces, numerical_rank, ranks
from oracles import _rank, annihilator_reference

TOL = 1e-10


def _rows(kind, n, d, factor, complex_, rng):
    """n atoms in dimension d with exact coincidences, each moved by ``factor * TOL * |atom|``."""
    vectors = rng.standard_normal((n, d))
    if kind == "repeated":
        for i in range(1, n, 2):
            vectors[i] = vectors[int(rng.integers(i))]
    elif kind == "zero":
        vectors[rng.random(n) < 0.5] = 0.0
    elif kind == "coordinate":
        vectors[np.arange(n), rng.integers(d, size=n)] = 0.0
    noise = rng.standard_normal((n, d))
    if complex_:
        vectors = vectors * (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)))
        noise = noise + 1j * rng.standard_normal((n, d))
    scale = np.linalg.norm(vectors, axis=1, keepdims=True)
    noise *= factor * TOL * scale / np.linalg.norm(noise, axis=1, keepdims=True)
    return vectors + noise


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["generic", "repeated", "zero", "coordinate"]),
    d=st.integers(1, 5),
    n=st.integers(1, 9),
    factor=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 1e3]),
    complex_=st.booleans(),
    data=st.data(),
)
def test_stacked_helpers_equal_the_one_matrix_helpers_bit_for_bit(kind, d, n, factor, complex_, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    v = _rows(kind, n, d, factor, complex_, rng)
    size = data.draw(st.integers(0, n))
    count = data.draw(st.integers(1, 6))
    sides = np.array([np.sort(rng.choice(n, size, replace=False)) for _ in range(count)], dtype=np.intp)
    stack = v[sides.reshape(count, size)]
    spans = full_column_rank(stack, TOL)
    _, bases = null_spaces(stack, TOL)
    assert spans.shape == (count,) and len(bases) == count
    for rows, spanning, basis in zip(stack, spans, bases):
        assert spanning == (numerical_rank(rows, TOL) >= d) == (_rank(rows, TOL) >= d)
        alone = annihilator_reference(rows, d, TOL)
        assert basis.dtype == alone.dtype and basis.shape == alone.shape
        assert basis.tobytes() == alone.tobytes()


def _null_spaces_phasing_every_row(stack, tol):
    """The reference for ``null_spaces``: every row of each V^H gets the canonical phase, then the null rows are kept."""
    d = stack.shape[2]
    _, s, vh = np.linalg.svd(np.conj(stack))
    rows = canonical_phases(np.conj(vh).reshape(-1, d)).reshape(vh.shape)
    return s, [h[rank:].T for rank, h in zip(ranks(s, tol).tolist(), rows)]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["generic", "repeated", "zero", "coordinate"]),
    d=st.integers(1, 5),
    n=st.integers(1, 9),
    factor=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
    complex_=st.booleans(),
    data=st.data(),
)
def test_null_spaces_phase_no_row_before_the_least_rank_and_keep_their_bytes(kind, d, n, factor, complex_, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    v = _rows(kind, n, d, factor, complex_, rng)
    size = data.draw(st.integers(1, n))
    count = data.draw(st.integers(1, 6))
    stack = v[np.array([np.sort(rng.choice(n, size, replace=False)) for _ in range(count)], dtype=np.intp)]
    phased = []

    def counting(rows):
        phased.append(len(rows))
        return canonical_phases(rows)

    with patch.object(_linalg, "canonical_phases", counting):
        s, bases = null_spaces(stack, TOL)
    want_s, want = _null_spaces_phasing_every_row(stack, TOL)
    assert s.tobytes() == want_s.tobytes()
    for basis, reference in zip(bases, want, strict=True):
        assert basis.dtype == reference.dtype and basis.shape == reference.shape
        assert basis.tobytes() == reference.tobytes()
    # One call, on the rows from the stack's least rank on: every null row, and no row before them.
    assert phased == [count * max(basis.shape[1] for basis in bases)]
