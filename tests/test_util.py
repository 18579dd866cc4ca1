import numpy as np
import pytest

from mongemmd.errors import InputError
from mongemmd.evaluation import evaluate
from mongemmd.kernel import KernelSpec, kernel_gram, kernel_sum_and_grad_rowsum
from mongemmd.loss import monge_mmd_loss
from mongemmd.mmd import mmd2_biased, mmd2_unbiased, mmd2_unbiased_grad_points
from mongemmd.nn import init_params
from mongemmd.sinkhorn import squared_distance_matrix
from mongemmd.train import TrainConfig, train
from mongemmd.util import as_point_pair

GAUSS = KernelSpec()


def test_each_set_is_checked_under_its_name():
    with pytest.raises(InputError, match="target contains non-finite values"):
        as_point_pair(np.zeros((2, 2)), [[0.0, np.nan]], ("source", "target"))


@pytest.mark.parametrize("call, names", [
    pytest.param(lambda X, Y: kernel_gram(GAUSS, X, Y), ("X", "Y"), id="kernel_gram"),
    pytest.param(lambda X, Y: kernel_sum_and_grad_rowsum(GAUSS, X, Y), ("X", "Y"),
                 id="kernel_sum_and_grad_rowsum"),
    pytest.param(lambda X, Y: mmd2_unbiased(GAUSS, X, Y), ("X", "Y"), id="mmd2_unbiased"),
    pytest.param(lambda X, Y: mmd2_biased(GAUSS, X, Y), ("X", "Y"), id="mmd2_biased"),
    pytest.param(lambda X, Y: mmd2_unbiased_grad_points(GAUSS, X, Y), ("X", "Y"),
                 id="mmd2_unbiased_grad_points"),
    pytest.param(lambda X, Y: monge_mmd_loss(init_params((2, 3, 2)), X, Y, GAUSS, 1.0),
                 ("X", "Y"), id="monge_mmd_loss"),
    pytest.param(squared_distance_matrix, ("X", "Y"), id="squared_distance_matrix"),
    pytest.param(lambda X, Y: train(TrainConfig(epochs=1, batch_size=2), X, Y),
                 ("source", "target"), id="train"),
    pytest.param(lambda X, Y: evaluate(init_params((2, 3, 2)), X, Y, GAUSS),
                 ("source_test", "target_test"), id="evaluate"),
])
def test_entry_points_refuse_sets_of_different_dimension(call, names):
    X = np.zeros((4, 2))
    Y = np.ones((4, 3))
    with pytest.raises(InputError, match=f"^{names[0]} and {names[1]} dimensions differ: 2 vs 3$"):
        call(X, Y)
