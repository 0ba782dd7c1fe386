"""Benchmark data-generating process for missing-at-random outcome data.

One draw produces latent standard-normal covariates Z, an outcome Y that
is linear in a weighted sum of the Z's, a response indicator T whose
probability is logistic in Z, and nonlinear transforms X of Z.  Analyses
that regress on Z use correctly specified models; analyses that regress
on X use misspecified ones, although X carries the same information.

Reproducibility contract: an (n, seed) pair fixes every array bit for
bit within one CPU class.  Each unit consumes six uniforms from a PCG64
stream in a fixed order (four for Z, one for the outcome noise, one for
the response draw), and normals come from the inverse CDF, so no
rejection step can desynchronise the stream.  X is computed with numpy's
exp and power, whose SIMD loops round their own way, so where numpy
dispatches to other SIMD features (np.show_runtime() lists them) X can
differ in the last bit; Z, Y, T and pi_true, computed with scipy's
ndtri and expit, do not.  generate_sample imports scipy when first
called, so only data generation loads it: importing drmean, estimating
and the sensitivity analysis do not.  A sample builds
its designs [1, Z] and [1, X] once: its views share them, read-only, and
each has its own copy of T and of the masked outcomes (make_view).

The design is Kang & Schafer's (Statist. Sci. 22(4), 2007):

    Y = 210 + 13.7 (2 Z1 + Z2 + Z3 + Z4) + eps,  eps ~ N(0, 1)
    logit pi = -Z1 + 0.5 Z2 - 0.25 Z3 - 0.1 Z4
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import as_array, check_flag, check_int, check_seed, check_type
from .errors import InvalidArgumentError

MU_TRUE = 210.0  # the population mean of Y


@dataclass
class FullSample:
    """One complete draw, including quantities hidden from the analyst,
    and the read-only designs its views share (make_view), built from Z
    and X on first read.  generate_sample (and so reverse_roles) returns
    Z and X read-only, so no write can leave those designs stale: it
    raises ValueError."""

    n: int
    Z: np.ndarray        # (n, 4) latent covariates
    X: np.ndarray        # (n, 4) observed nonlinear transforms
    pi_true: np.ndarray  # (n,) true response probabilities, in (0, 1)
    T: np.ndarray        # (n,) response indicators, int, 0 or 1
    Y: np.ndarray        # (n,) complete outcomes

    # [1, Z] and [1, X], built on first read; not fields, so not in ==, repr
    design_z = cached_property(lambda self: _shared_design(self.Z))
    design_x = cached_property(lambda self: _shared_design(self.X))


@dataclass
class AnalysisView:
    """What an analyst sees: designs, response indicator, observed outcomes.

    y_observed holds NaN where T == 0; no code may read those entries.
    """

    design_pi: np.ndarray  # (n, 5) design for the response model
    design_m: np.ndarray   # (n, 5) design for the outcome model
    T: np.ndarray
    y_observed: np.ndarray


def transform_covariates(Z: np.ndarray) -> np.ndarray:
    """Map latent Z to the observed nonlinear covariates X.

    Pure function of Z:
        X1 = exp(Z1 / 2)
        X2 = Z2 / (1 + exp(Z1)) + 10
        X3 = (Z1 * Z3 / 25 + 0.6) ** 3
        X4 = (Z2 + Z4 + 20) ** 2
    """
    Z = as_array(Z, "Z")
    if Z.ndim != 2 or Z.shape[1] != 4:
        raise InvalidArgumentError("Z must have shape (n, 4)")
    x1 = np.exp(Z[:, 0] / 2.0)
    x2 = Z[:, 1] / (1.0 + np.exp(Z[:, 0])) + 10.0
    x3 = (Z[:, 0] * Z[:, 2] / 25.0 + 0.6) ** 3
    x4 = (Z[:, 1] + Z[:, 3] + 20.0) ** 2
    return np.column_stack([x1, x2, x3, x4])


def generate_sample(n: int, seed: int) -> FullSample:
    """Draw a sample of size n, fully determined by (n, seed), seed in
    [0, 2**64) as for every seed of the package."""
    # scipy's ndtri and expit, glibc's exp inside, give Z, Y, T and
    # pi_true the same bits on every x86-64 class; imported here, so only
    # data generation loads scipy
    from scipy.special import expit, ndtri

    n, seed = check_int(n, "n", 1), check_seed(seed, "seed")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((n, 6))
    # random() can return exactly 0, where ndtri gives -inf
    u[:, :5] = np.maximum(u[:, :5], 1e-300)
    Z = ndtri(u[:, :4])
    eps = ndtri(u[:, 4])
    Y = MU_TRUE + 13.7 * (Z @ np.array([2.0, 1.0, 1.0, 1.0])) + eps
    pi_true = expit(Z @ np.array([-1.0, 0.5, -0.25, -0.1]))
    T = (u[:, 5] < pi_true).astype(np.int64)
    X = transform_covariates(Z)
    Z.flags.writeable = X.flags.writeable = False  # the designs are built from them
    return FullSample(n=n, Z=Z, X=X, pi_true=pi_true, T=T, Y=Y)


def reverse_roles(sample: FullSample) -> FullSample:
    """Swap respondents and nonrespondents: T -> 1 - T, pi -> 1 - pi.

    Everything else (Z, X, Y) is shared with the input sample, so the
    operation is an involution up to array identity; the result builds its
    own design_z and design_x from the shared read-only Z and X on first
    use, with the same bits.
    """
    check_type(sample, FullSample, "sample")
    return FullSample(
        n=sample.n,
        Z=sample.Z,
        X=sample.X,
        pi_true=1.0 - sample.pi_true,
        T=1 - sample.T,
        Y=sample.Y,
    )


def design_matrix(covariates: np.ndarray, columns) -> np.ndarray:
    """The design [1, covariates[:, columns]] in C order.

    Column fancy-indexing yields Fortran order, and a different memory
    layout changes BLAS rounding; C order keeps designs built from the
    same columns bitwise interchangeable.
    """
    return np.ascontiguousarray(
        np.hstack([np.ones((covariates.shape[0], 1)), covariates[:, list(columns)]])
    )


def _shared_design(covariates: np.ndarray) -> np.ndarray:
    design = design_matrix(covariates, range(covariates.shape[1]))
    design.flags.writeable = False
    return design


def make_view(sample: FullSample, pi_model_correct: bool, m_model_correct: bool) -> AnalysisView:
    """Build the analyst's view of a sample.

    A correct model regresses on [1, Z]; a misspecified one on [1, X];
    each flag must be a boolean.  The designs are the sample's read-only
    design_z and design_x, so the views of one sample, and the fits a
    Pipeline memo keys by design, share them.  Each view has its own copy
    of T and its own outcomes, masked to NaN wherever T == 0.
    """
    check_type(sample, FullSample, "sample")
    pi_model_correct = check_flag(pi_model_correct, "pi_model_correct")
    m_model_correct = check_flag(m_model_correct, "m_model_correct")
    return AnalysisView(
        design_pi=sample.design_z if pi_model_correct else sample.design_x,
        design_m=sample.design_z if m_model_correct else sample.design_x,
        T=sample.T.copy(),
        y_observed=np.where(sample.T == 1, sample.Y, np.nan),
    )
