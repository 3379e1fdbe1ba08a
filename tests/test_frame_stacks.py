"""A frame of the sphere does not depend on the rows stacked with it."""
import numpy as np
import pytest

from stringcap.frames import sphere_unitary_frame


def _bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 401])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_every_row_of_a_stack_is_bit_for_bit_the_frame_of_that_row_alone(n, m):
    # a sum over a short axis by np.add.reduce rounds a lone complex row
    # otherwise than a row of a stack; the frame's sums add in a fixed order
    q = np.random.default_rng(100 * n + m).standard_normal((m, n + 1))
    q[0] = np.eye(n + 1)[n]  # a pole, where the tangent basis is degenerate in x
    q /= np.linalg.norm(q, axis=1)[:, None]
    stacked = sphere_unitary_frame(n, q)
    for row in range(m):
        alone = sphere_unitary_frame(n, q[row])
        assert _bits(alone.matrix) == _bits(stacked.matrix[row])
        assert _bits(alone.unitarity_residual) == _bits(stacked.unitarity_residual[row])
        assert _bits(alone.basepoint_residual) == _bits(stacked.basepoint_residual[row])
