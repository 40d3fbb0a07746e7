from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab._linalg import full_column_rank, null_spaces, numerical_rank
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
