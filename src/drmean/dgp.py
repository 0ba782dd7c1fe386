"""Benchmark data-generating process for missing-at-random outcome data.

One draw produces latent standard-normal covariates Z, an outcome Y that
is linear in a weighted sum of the Z's, a response indicator T whose
probability is logistic in Z, and nonlinear transforms X of Z.  Analyses
that regress on Z use correctly specified models; analyses that regress
on X use misspecified ones, although X carries the same information.

Reproducibility contract: an (n, seed) pair fixes every array bit for
bit.  Each unit consumes six uniforms from a PCG64 stream in a fixed
order (four for Z, one for the outcome noise, one for the response
draw), and normals come from the inverse CDF, so no rejection step can
desynchronise the stream.

The design is Kang & Schafer's (Statist. Sci. 22(4), 2007):

    Y = 210 + 13.7 (2 Z1 + Z2 + Z3 + Z4) + eps,  eps ~ N(0, 1)
    logit pi = -Z1 + 0.5 Z2 - 0.25 Z3 - 0.1 Z4
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtri

from ._util import as_array, check_int
from .errors import InvalidArgumentError

MU_TRUE = 210.0  # the population mean of Y


@dataclass
class FullSample:
    """One complete draw, including quantities hidden from the analyst."""

    n: int
    Z: np.ndarray        # (n, 4) latent covariates
    X: np.ndarray        # (n, 4) observed nonlinear transforms
    pi_true: np.ndarray  # (n,) true response probabilities, in (0, 1)
    T: np.ndarray        # (n,) response indicators, int, 0 or 1
    Y: np.ndarray        # (n,) complete outcomes


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
    """Draw a sample of size n, fully determined by (n, seed)."""
    n, seed = check_int(n, "n", 1), check_int(seed, "seed", 0)
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
    return FullSample(n=n, Z=Z, X=X, pi_true=pi_true, T=T, Y=Y)


def reverse_roles(sample: FullSample) -> FullSample:
    """Swap respondents and nonrespondents: T -> 1 - T, pi -> 1 - pi.

    Everything else (Z, X, Y) is shared with the input sample, so the
    operation is an involution up to array identity.
    """
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


def make_view(
    sample: FullSample,
    pi_model_correct: bool,
    m_model_correct: bool,
    *,
    _parts: dict | None = None,
) -> AnalysisView:
    """Build the analyst's view of a sample.

    A correct model regresses on [1, Z]; a misspecified one on [1, X].
    Outcomes are masked to NaN wherever T == 0.  Only the designs the view
    uses are built.  mc passes the views of one sample a shared _parts
    dict: they then share each design, the copy of T and the masked
    outcomes, so a Pipeline memo (keyed by design identity) shares their
    fits, and equal the views built without it.
    """
    parts = {} if _parts is None else _parts

    def design(correct: bool) -> np.ndarray:
        if correct not in parts:
            covariates = sample.Z if correct else sample.X
            parts[correct] = np.hstack([np.ones((sample.n, 1)), covariates])
        return parts[correct]

    if "T" not in parts:
        parts["T"] = sample.T.copy()
        parts["y"] = np.where(sample.T == 1, sample.Y, np.nan)
    return AnalysisView(
        design_pi=design(pi_model_correct),
        design_m=design(m_model_correct),
        T=parts["T"],
        y_observed=parts["y"],
    )
