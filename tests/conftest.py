import numpy as np
import pytest

from cekit.tensor import PureState


@pytest.fixture
def bell() -> PureState:
    return PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), (2, 2))


@pytest.fixture
def zero_one() -> PureState:
    return PureState(np.array([0.0, 1.0, 0.0, 0.0]), (2, 2))


@pytest.fixture
def relabel():
    """`relabel(psi, order)`: psi with its subsystems relabelled, new subsystem k being old subsystem order[k-1]."""

    def relabel(psi: PureState, order) -> PureState:
        axes = [i - 1 for i in order]
        t = psi.amplitudes.reshape(psi.dims).transpose(axes)
        return PureState(t.reshape(-1), tuple(psi.dims[ax] for ax in axes))

    return relabel
