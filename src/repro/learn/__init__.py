"""From-scratch statistical learning: support vector classification.

The paper performs its test compaction with an eps-SVM classifier
(Section 2.2, refs [7, 8]).  Since no external machine-learning package
is assumed, this subpackage implements the full stack:

* :mod:`repro.learn.kernels` -- linear / polynomial / RBF / sigmoid
  kernels and Gram-matrix evaluation;
* :mod:`repro.learn.smo` -- the Platt/Keerthi sequential minimal
  optimization (SMO) dual solver with LIBSVM's second-order working
  set selection (WSS2);
* :mod:`repro.learn.columns` -- the byte-bounded kernel-column cache
  the solver builds for problems too large for a Gram matrix;
* :mod:`repro.learn.svm` -- the :class:`~repro.learn.svm.SVC` public
  estimator (fit / predict / decision_function);
* :mod:`repro.learn.ovr` -- one-vs-rest :class:`SVC` banks for
  multi-bin grade prediction, sharing one training Gram matrix and
  SMO warm starts across the member fits;
* :mod:`repro.learn.model_selection` -- k-fold cross-validation and
  grid search;
* :mod:`repro.learn.ridge` -- a ridge-regression baseline used by the
  classification-versus-regression ablation (paper Section 4.1).
"""

from repro.learn.kernels import kernel_function, KERNELS
from repro.learn.model_selection import (
    KFold,
    cross_val_score,
    grid_search,
)
from repro.learn.ovr import OneVsRestSVCBank
from repro.learn.ridge import RidgeRegressor
from repro.learn.svm import SVC

__all__ = [
    "SVC",
    "OneVsRestSVCBank",
    "kernel_function",
    "KERNELS",
    "KFold",
    "cross_val_score",
    "grid_search",
    "RidgeRegressor",
]
