"""Negative log-likelihood kernels over marginal observations.

Four observation laws are supported: Poisson counts, Poisson-quantized
binary, Gaussian reals, and Gaussian-quantized binary. Each kernel is an
elementwise cell function summed over the matrix, with an analytic
gradient with respect to the reconstruction; each law has one formula.
All kernels stay finite on the non-negative orthant (projected factors can
hit exact zero).

A Poisson cell's NLL is vhat minus poisson_log_term, and its gradient is
1 - poisson_weight. EPS guards only those two helpers, where V > 0 needs a
log or a ratio, and both are 0 where V is 0, so a sparse Poisson term is
evaluated on its observed cells alone, with sum(vhat) in closed form
(model.Term).

A Gaussian-binary cell's NLL is -log(erfc(y)/2), with y > 0 where the
recorded value is the unlikely one; _gaussian_binary gives it and its
gradient from one routing of erfc(y): erf where y <= 0, math.erfc above and
its asymptotic series in the far tail. erf is math.erf cell by cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_setting

EPS = 1e-12

POISSON = "poisson"
GAUSSIAN = "gaussian"
INTEGER = "integer"
BINARY = "binary"
REAL = "real"

VALID_KINDS = {
    (POISSON, INTEGER),
    (POISSON, BINARY),
    (GAUSSIAN, REAL),
    (GAUSSIAN, BINARY),
}

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

#: math.erfc(y) leaves the normal floats near y = 26.55 and reads 0 past 27.3;
#: from here on erfc(y) = e^(-y^2) s(y) / (y sqrt(pi)), with s(y) from
#: _erfc_series (its first omitted term is below 1e-19 here)
ERFC_ASYMPTOTIC = 26.0


@dataclass(frozen=True)
class ObservationKind:
    distribution: str  # "poisson" | "gaussian"
    datatype: str      # "integer" | "binary" | "real"

    def __post_init__(self):
        if (self.distribution, self.datatype) not in VALID_KINDS:
            raise ValueError(f"invalid observation kind: {self.distribution!r}/{self.datatype!r}")

    @classmethod
    def parse(cls, token):
        """Parse 'poisson-integer' style tokens."""
        dist, _, dtype = token.partition("-")
        return cls(dist, dtype)

    def __str__(self):
        return f"{self.distribution}-{self.datatype}"


def tensor_kind(tensor, modality, datatype):
    """The ObservationKind of modality's cells in tensor: datatype under the
    tensor's distribution; ConfigurationError naming tensor, modality,
    datatype and distribution when the distribution cannot hold it."""
    if (tensor.distribution, datatype) not in VALID_KINDS:
        raise ConfigurationError(
            f"modality {modality!r}: datatype {datatype!r} incompatible with "
            f"distribution {tensor.distribution!r} of tensor {tensor.id!r}")
    return ObservationKind(tensor.distribution, datatype)


@dataclass(frozen=True)
class GaussianParams:
    """Marginal Gaussian parameters: per-entry variance and marginalization multiplicity."""
    sigma2: float
    t_n: int

    def __post_init__(self):
        check_setting("gaussian params", "sigma2", self.sigma2, 0, open_low=True)
        check_setting("gaussian params", "t_n", self.t_n, 1, integral=True)


def erf(x):
    """Error function, math.erf cell by cell (within 1 ulp of mpmath on [-7, 7]).

    Takes any array-like of floats and returns a float array of the same
    shape, or a float for a 0-d input. erf(+-inf) is +-1 and erf(nan) is
    nan.
    """
    x = np.asarray(x, dtype=float)
    out = _per_cell(math.erf, x)
    return float(out) if x.ndim == 0 else out


def _per_cell(fn, x):
    """fn, a function of one float, applied to each cell of the float array x.
    Mapping fn over the cells as a list took 25-40% less time per cell than
    np.frompyfunc with its object array (math.erf and math.erfc on a few
    thousand cells, one core)."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def erf_derivative(x):
    """d/dx erf(x) = 2/sqrt(pi) * exp(-x^2)."""
    x = np.asarray(x, dtype=float)
    res = _TWO_OVER_SQRT_PI * np.exp(-x * x)
    return float(res) if res.ndim == 0 else res


def _floor(vhat):
    return np.maximum(vhat, EPS)


def _clamp_prob(p):
    return np.clip(p, EPS, 1.0 - EPS)


def _log_expm1(v):
    """log(e^v - 1), stable for both small and large v."""
    v = _floor(v)
    small = v < 30.0
    out = np.where(small, np.log(np.expm1(np.where(small, v, 1.0))),
                   v + np.log1p(-np.exp(-v)))
    return out


def poisson_log_term(datatype, V, Vhat):
    """V log(vhat) (integer) or V log(e^vhat - 1) (binary), vhat floored at EPS.

    The part of a Poisson cell NLL that is 0 where V is 0.
    """
    if datatype == INTEGER:
        return V * np.log(_floor(Vhat))
    return V * _log_expm1(Vhat)


def poisson_weight(datatype, V, Vhat):
    """V / vhat (integer) or V / p with p = 1 - e^-vhat (binary), vhat floored at EPS.

    A Poisson cell's d NLL / d vhat is 1 minus this, so 1 where V is 0.
    """
    if datatype == INTEGER:
        return V / _floor(Vhat)
    return V / _clamp_prob(-np.expm1(-_floor(Vhat)))


def _gaussian_scale(params):
    """sigma sqrt(2 t_n): a Gaussian-binary cell's erf argument is vhat over it."""
    return math.sqrt(2.0 * params.t_n) * math.sqrt(params.sigma2)


def gaussian_binary_prob(Vhat, params):
    """Pr(quantized value = 1) = 1/2 - 1/2 erf(-vhat / (sqrt(2 t_n) sigma))."""
    return 0.5 - 0.5 * erf(-np.asarray(Vhat, dtype=float) / _gaussian_scale(params))


def _erfc_series(y):
    """s(y) = sum over n of (-1)^n (2n - 1)!! / (2 y^2)^n, to n = 7: the
    asymptotic series of erfc(y) y sqrt(pi) e^(y^2), for y >= ERFC_ASYMPTOTIC."""
    u = -0.5 / (y * y)
    term = s = np.ones_like(y)
    for n in range(1, 8):
        term = term * ((2 * n - 1) * u)
        s = s + term
    return s


def _gaussian_binary(V, Vhat, params):
    """(NLL, d NLL / d vhat) per Gaussian-binary cell: -log(erfc(y) / 2) and
    the Mills ratio erf'(y) / erfc(y) times dy/dvhat, with
    y = (1 - 2V) vhat / (sigma sqrt(2 t_n)). erfc(y) is 1 + erf(-y) where
    y <= 0 and math.erfc(y) up to ERFC_ASYMPTOTIC, one call per cell; beyond,
    they are y^2 + log(2 sqrt(pi) y / s(y)) and 2 y / s(y)."""
    y = np.asarray((1.0 - 2.0 * V) * Vhat / _gaussian_scale(params))
    low, tail = y <= 0.0, y > ERFC_ASYMPTOTIC
    erfc_y = np.ones(y.shape)
    erfc_y[low] = 1.0 + erf(-y[low])
    mid = ~(low | tail)  # NaN included, so that it propagates
    erfc_y[mid] = _per_cell(math.erfc, y[mid])
    cells = -np.log(0.5 * erfc_y)
    mills = erf_derivative(y) / erfc_y
    if tail.any():
        yt = np.where(tail, y, ERFC_ASYMPTOTIC)
        s = _erfc_series(yt)
        cells = np.where(tail, yt * yt + np.log(2.0 * math.sqrt(math.pi) * yt / s), cells)
        mills = np.where(tail, 2.0 * yt / s, mills)
    return cells, (1.0 - 2.0 * V) / _gaussian_scale(params) * mills


def nll_cells(kind, V, Vhat, params=None):
    """Elementwise NLL contributions for any observation kind."""
    V = np.asarray(V, dtype=float)
    Vhat = np.asarray(Vhat, dtype=float)
    if kind.distribution == POISSON:
        return Vhat - poisson_log_term(kind.datatype, V, Vhat)
    if kind.datatype == REAL:
        ts2 = params.t_n * params.sigma2
        d = V - Vhat
        return 0.5 * (math.log(2.0 * math.pi * ts2) + d * d / ts2)
    return _gaussian_binary(V, Vhat, params)[0]


def nll(kind, V, Vhat, params=None):
    """Summed NLL of observations V under reconstruction Vhat.

    Poisson-integer: vhat - v log(vhat), without the log(v!) constant.
    Poisson-binary: Bernoulli with p = 1 - exp(-vhat). Gaussian-real:
    variance t_n sigma^2. Gaussian-binary: Bernoulli with p from
    gaussian_binary_prob. The Gaussian kinds take GaussianParams.
    """
    return float(np.sum(nll_cells(kind, V, Vhat, params)))


def grad_nll_wrt_reconstruction(kind, V, Vhat, params=None):
    """Elementwise d NLL / d vhat for the matching kernel."""
    V = np.asarray(V, dtype=float)
    Vhat = np.asarray(Vhat, dtype=float)
    if kind.distribution == POISSON:
        return 1.0 - poisson_weight(kind.datatype, V, Vhat)
    if kind.datatype == REAL:
        return (Vhat - V) / (params.t_n * params.sigma2)
    return _gaussian_binary(V, Vhat, params)[1]
