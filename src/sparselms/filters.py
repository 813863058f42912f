"""The LMS/sign-LMS family with sparsity-promoting zero attractors.

Each algorithm is one per-sample update of the coefficient vector w:

    w(n+1) = w(n) + g(n) - attractor(w(n), w(n-1))

where the data term g(n) is

    gradient family (LMS):   mu * e(n) * x(n)
    sign family (SLMS):      mu * sgn(e(n)) * x(n)

with e(n) = d(n) - w(n)^T x(n).  The sign family bounds every coefficient
move by mu*|x_i(n)| regardless of how large the error is, which is what
keeps it alive under impulsive noise.  The attractor term pulls
coefficients toward zero and comes in four flavours:

    za    rho * sgn(w)
    rza   rho * sgn(w) / (1 + eps*|w|)                   (elementwise)
    rl1   rho * sgn(w) / (delta + |w_prev|)              (elementwise)
    lp    rho * ||w||_p^(1-p) * sgn(w) / (eps + |w|^(1-p))

``rza`` attenuates the pull on large taps, ``rl1`` reweights by the
previous iterate (w(-1) = 0, so the first step uses a uniform 1/delta
weight), and ``lp`` is the gradient of the nonconvex p-quasinorm smoothed
by eps.  With sgn(0) = 0, exact zeros are fixed points of every attractor.

The rules exist once, in :class:`Rules`, which advances a block of
coefficient rows (algorithms x trials x taps) by one sample; :func:`step`
is its one-row case and :func:`attractor` acts along the last axis.
Neither decides divergence: a row that blows up comes back with
non-finite coefficients, and the caller judges it (the Monte-Carlo
harness by the first non-finite normalised squared error).

``family`` x ``penalty`` gives the ten wire names used throughout the
package: lms, slms, lms-za, slms-za, lms-rza, slms-rza, lms-rl1, slms-rl1,
lms-lp, slms-lp.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

FAMILIES = ("gradient", "sign")

# family prefix on the wire
_FAMILY_NAMES = {"gradient": "lms", "sign": "slms"}
_NAME_FAMILIES = {v: k for k, v in _FAMILY_NAMES.items()}

# the hyperparameters of each penalty and their defaults; the attractor
# coefficients equal the regularization weights of the reference
# configuration.  The keys are AlgorithmSpec fields and, but for rho
# (``lambda`` in a config file), the config keys.
PENALTY_PARAMS = {
    "none": {},
    "za": {"rho": 2e-4},
    "rza": {"rho": 2e-3, "eps": 20.0},
    "rl1": {"rho": 5e-5, "delta": 0.05},
    "lp": {"rho": 5e-6, "eps": 0.05, "p": 0.5},
}
PENALTIES = tuple(PENALTY_PARAMS)
DEFAULT_MU = 0.005


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which update rule to run, plus its hyperparameters.

    A hyperparameter left as None takes its penalty's default from
    :data:`PENALTY_PARAMS`; one the penalty does not use stays None, and
    setting it raises :class:`ParameterError`.
    """

    family: str = "sign"
    penalty: str = "none"
    mu: float = DEFAULT_MU
    rho: float | None = None
    eps: float | None = None
    delta: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.penalty not in PENALTIES:
            raise ParameterError(f"penalty must be one of {PENALTIES}, got {self.penalty!r}")
        defaults = PENALTY_PARAMS[self.penalty]
        for attr in ("rho", "eps", "delta", "p"):
            if getattr(self, attr) is None:
                object.__setattr__(self, attr, defaults.get(attr))
            elif attr not in defaults:
                raise ParameterError(
                    f"{attr} is not a parameter of the {self.penalty!r} penalty")
        for attr in ("mu", "eps", "delta"):
            value = getattr(self, attr)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ParameterError(f"{attr} must be finite and positive, got {value}")
        if self.rho is not None and not (math.isfinite(self.rho) and self.rho >= 0):
            raise ParameterError(f"rho must be finite and >= 0, got {self.rho}")
        if self.p is not None and not (0.0 < self.p < 1.0):
            raise ParameterError(f"p must be in (0, 1), got {self.p}")

    @property
    def name(self):
        """Wire name, e.g. "slms-rza"."""
        base = _FAMILY_NAMES[self.family]
        return base if self.penalty == "none" else f"{base}-{self.penalty}"

    @classmethod
    def from_name(cls, name, **overrides):
        """Build a spec from a wire name such as "lms" or "slms-rl1"."""
        base, sep, penalty = name.partition("-")
        if base not in _NAME_FAMILIES or (sep and penalty not in PENALTIES[1:]):
            raise ParameterError(f"unknown algorithm name {name!r}")
        return cls(family=_NAME_FAMILIES[base], penalty=penalty or "none", **overrides)


@dataclass
class FilterState:
    """Coefficient estimate w(n) and the previous iterate w(n-1)."""

    w: np.ndarray
    w_prev: np.ndarray

    @classmethod
    def zeros(cls, n_taps):
        return cls(w=np.zeros(n_taps), w_prev=np.zeros(n_taps))


def attractor(spec, w, w_prev=None):
    """The zero-attraction term subtracted by the update, along the last axis.

    ``w`` holds one coefficient vector per row of its last axis.
    ``w_prev`` is only consulted by the rl1 penalty and defaults to zeros
    (the startup convention).
    """
    if spec.penalty == "none":
        return np.zeros_like(w)
    s = np.sign(w)
    if spec.penalty == "za":
        return spec.rho * s
    if spec.penalty == "rza":
        return spec.rho * s / (1.0 + spec.eps * np.abs(w))
    if spec.penalty == "rl1":
        if w_prev is None:
            w_prev = np.zeros_like(w)
        return spec.rho * s / (spec.delta + np.abs(w_prev))
    # lp; the norm factor is 0 for w = 0, so zero stays a fixed point.  The
    # factor takes numpy's scalar (libm) pow row by row, as the one-vector
    # rule of sparselms 0.1.0 did: numpy's array power loops round
    # differently, and the learning curves are kept bit-identical
    q = 1.0 - spec.p
    a = np.abs(w)
    sums = (a ** spec.p).sum(axis=-1, keepdims=True)
    factor = np.array([spec.rho * (t ** (1.0 / spec.p)) ** q for t in sums.flat])
    return factor.reshape(sums.shape) * s / (spec.eps + a ** q)


class Rules:
    """The update rules of a block of coefficient rows, one per spec.

    A block is a ``(rules, trials, taps)`` array: row ``i`` runs
    ``specs[i]`` on every trial of the block.  Adjacent rows whose specs
    share a penalty and its hyperparameters form one group, which costs one
    :func:`attractor` call on a view per sample.

    Every product is formed as in the one-row recursion (``np.vecdot`` on
    forward-strided rows is the same dot product as ``w @ x``), so a block
    reproduces a per-sample loop over :func:`step` bit for bit.
    """

    def __init__(self, specs):
        self.mu = np.array([[spec.mu] for spec in specs])
        self.sign = np.array([[spec.family == "sign"] for spec in specs])
        # rows whose specs differ only in family and step size share an
        # attractor, which reads only these fields of its group's first spec
        self.groups = []
        start = 0
        for _, members in itertools.groupby(
                specs, lambda spec: (spec.penalty, spec.rho, spec.eps, spec.delta, spec.p)):
            members = list(members)
            if members[0].penalty != "none":
                self.groups.append((members[0], slice(start, start + len(members))))
            start += len(members)

    def advance(self, w, w_prev, x, d):
        """w(n+1) of every row, given w(n) and w(n-1) as ``(rules, trials,
        taps)`` blocks, the regressors ``x`` as ``(trials, taps)`` and the
        desired samples ``d`` as ``(trials,)``."""
        e = d - np.vecdot(w, x)
        coef = self.mu * np.where(self.sign, np.sign(e), e)
        w_new = w + coef[..., None] * x
        for spec, rows in self.groups:
            w_new[rows] -= attractor(spec, w[rows], w_prev[rows])
        return w_new


def step(spec, state, x, d):
    """Advance the filter by one sample; returns a new state.

    The one-row case of :meth:`Rules.advance`.  Does not mutate its
    arguments.  A diverging row comes back with non-finite coefficients
    and no warning, as in the block kernel; deciding divergence is the
    caller's.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != state.w.shape:
        raise ParameterError(f"regressor shape {x.shape} does not match taps {state.w.shape}")
    # overflow is the anticipated divergence mode, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        w_new = Rules((spec,)).advance(
            state.w[None, None], state.w_prev[None, None], x[None], float(d))[0, 0]
    return FilterState(w=w_new, w_prev=state.w)


def penalty_value(spec, w, w_prev=None):
    """Value of the sparsity penalty alone (no regularization weight).

    za: l1 norm; rza: sum log(1 + eps*|w_i|); rl1: weighted l1 norm with
    the reweighting vector frozen at ``w_prev``; lp: p-quasinorm.  The
    attractor terms are (scaled) gradients of these; see the gradient
    consistency tests.
    """
    w = np.asarray(w, dtype=float)
    if spec.penalty == "none":
        return 0.0
    if spec.penalty == "za":
        return float(np.sum(np.abs(w)))
    if spec.penalty == "rza":
        return float(np.sum(np.log1p(spec.eps * np.abs(w))))
    if spec.penalty == "rl1":
        if w_prev is None:
            w_prev = np.zeros_like(w)
        f = 1.0 / (spec.delta + np.abs(np.asarray(w_prev, dtype=float)))
        return float(np.sum(np.abs(f * w)))
    return float(np.sum(np.abs(w) ** spec.p) ** (1.0 / spec.p))
