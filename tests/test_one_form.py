"""Each argument takes the one form its production caller passes.

Every case hands one argument a shape or count that its production
caller never passes (a 2-D array for a vector, a vector for a scalar, a
float, bool or too small a number for a count) and expects a ValueError
that names the argument.
"""

import math
import re

import numpy as np
import pytest

from femupdate.modal import CostWeights, ModalData
from femupdate.optimizers import Bounds, EvalBudget, SaConfig, sa_optimize
from femupdate.report import write_design
from femupdate.surrogate import SurrogateNet, TrainingSet, check_net_fits, init_net, train

BOX = Bounds(lower=np.zeros(3), upper=np.ones(3))


def modal_data():
    return ModalData(frequencies=[1.0, 2.0], mode_shapes=np.eye(2), coordinate_map=[0, 2])


def small_net():
    return init_net(Bounds(lower=np.zeros(2), upper=np.ones(2)), 1, seed=0)


CASES = {
    "CostWeights-gamma-2-D": (
        lambda tmp: CostWeights(gamma=[[1.0, 1.0]], beta=0.1),
        "gamma must be a 1-D array, got shape (1, 2)"),
    "CostWeights-beta-vector": (
        lambda tmp: CostWeights(gamma=[1.0, 1.0], beta=np.array([0.1, 0.2])),
        "beta must be a 0-D array, got shape (2,)"),
    "SurrogateNet-in_center-2-D": (
        lambda tmp: SurrogateNet(w1=np.zeros((1, 3)), w2=np.zeros(2),
                                 in_center=[[0.0, 0.0]], in_half=[[1.0, 1.0]]),
        "in_center must be a 1-D array, got shape (1, 2)"),
    "SurrogateNet-w1-1-D": (
        lambda tmp: SurrogateNet(w1=[0.1, 0.2], w2=[0.1, 0.2], in_center=0.0, in_half=1.0),
        "w1 must be a 2-D array, got shape (2,)"),
    "init_net-m_hidden-0": (
        lambda tmp: init_net(BOX, 0, seed=0),
        "m_hidden must be >= 1"),
    "train-cycles-bool": (
        lambda tmp: train(small_net(), TrainingSet(inputs=np.zeros((10, 2)),
                                                   targets=np.zeros(10)), cycles=True),
        "cycles must be an integer, got True"),
    "check_net_fits-m_hidden-float": (
        lambda tmp: check_net_fits(2, 2.5, 100),
        "m_hidden must be an integer, got 2.5"),
    "select_modes-scalar": (
        lambda tmp: modal_data().select_modes(0),
        "indices must be a 1-D array, got shape ()"),
    "at_coordinates-scalar": (
        lambda tmp: modal_data().at_coordinates(2),
        "dofs must be a 1-D array, got shape ()"),
    "EvalBudget-limit-nan": (
        lambda tmp: EvalBudget(limit=math.nan),
        "limit must be an integer, got nan"),
    "sa_optimize-x0-2-D": (
        lambda tmp: sa_optimize(lambda x: float(np.sum(x**2)), BOX, SaConfig(),
                                x0=np.full((1, 3), 0.5)),
        "x0 must lie in the 3-D bounds, got shape (1, 3)"),
    "sa_optimize-x0-length-4": (
        lambda tmp: sa_optimize(lambda x: 0.0, BOX, SaConfig(), x0=np.full(4, 0.5)),
        "x0 must lie in the 3-D bounds, got shape (4,)"),
    "Bounds.contains-2-D": (
        lambda tmp: BOX.contains(np.zeros((3, 3))),
        "x must have shape (3,), got (3, 3)"),
    "write_design-short-costs": (
        lambda tmp: write_design(np.zeros((3, 2)), np.zeros(2), tmp / "design.csv"),
        "need (n, d) inputs and (n,) costs, got shapes (3, 2) and (2,)"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_other_form_raises_value_error_naming_it(call, message, tmp_path):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
    assert not any(tmp_path.iterdir())
