"""Curves in S^3: curvature profiles, helices and asymptotic lifts.

All curves are sampled on uniform parameter grids.  Curves in S^3 are
parametrized by arclength u; for lifts of S^2 curves through the Hopf
fibration this is the lift arclength, and the projected curve is traversed
with speed ds/du = 2/sqrt(1 + k(u)^2).
"""

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _fd as fd
from .errors import IntegrationFailure
from .quat import QONE, pure, qconj, qexp_pure, qmul, qnorm, qnormalize

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# curvature profiles


@dataclass(frozen=True)
class CurvatureProfile:
    """Periodic geodesic curvature k(u) of lift-arclength, as a Fourier series.

    k(u) = k0 + sum_m fourier_cos[m-1] cos(2 pi m u / T)
              + sum_m fourier_sin[m-1] sin(2 pi m u / T)

    The declared base_period T is authoritative; it is never re-inferred
    from the coefficients, so a constant profile keeps whatever period it
    was built with (circles carry T = pi, the lift-arclength of one loop).
    """

    base_period: float
    k0: float = 0.0
    fourier_cos: tuple = ()
    fourier_sin: tuple = ()

    def __post_init__(self):
        if self.base_period <= 0:
            raise ValueError("base_period must be positive")
        object.__setattr__(self, "fourier_cos", tuple(float(c) for c in self.fourier_cos))
        object.__setattr__(self, "fourier_sin", tuple(float(c) for c in self.fourier_sin))

    def value(self, u):
        u = np.asarray(u, dtype=float)
        out = np.full(u.shape, self.k0)
        w = TWO_PI / self.base_period
        for m, c in enumerate(self.fourier_cos, start=1):
            if c:
                out = out + c * np.cos(m * w * u)
        for m, s in enumerate(self.fourier_sin, start=1):
            if s:
                out = out + s * np.sin(m * w * u)
        return out if out.shape else float(out)

    def deriv(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        w = TWO_PI / self.base_period
        for m, c in enumerate(self.fourier_cos, start=1):
            if c:
                out = out - c * m * w * np.sin(m * w * u)
        for m, s in enumerate(self.fourier_sin, start=1):
            if s:
                out = out + s * m * w * np.cos(m * w * u)
        return out if out.shape else float(out)

    def stretch(self, n):
        """Profile of the n-stretched curve, k~(u) = k(u/n) with period n*T."""
        if n < 1:
            raise ValueError("stretch factor must be >= 1")
        return CurvatureProfile(n * self.base_period, self.k0,
                                self.fourier_cos, self.fourier_sin)

    def to_json(self):
        """The JSON object that parse_profile reads back."""
        return json.dumps({"T": self.base_period, "k0": self.k0,
                           "cos": list(self.fourier_cos), "sin": list(self.fourier_sin)})


@dataclass(frozen=True)
class QuasiPeriodicProfile:
    """Bounded smooth curvature k(u) = k0 + sum amp_i cos(freq_i u + phase_i).

    Frequencies need not be commensurate, so the profile (and the Hopf
    cylinder built on it) need not be periodic.  Used by the complete
    flat-cylinder pipeline.
    """

    k0: float
    terms: tuple = ()  # (amplitude, frequency, phase) triples

    def value(self, u):
        u = np.asarray(u, dtype=float)
        out = np.full(u.shape, self.k0)
        for amp, freq, phase in self.terms:
            out = out + amp * np.cos(freq * u + phase)
        return out if out.shape else float(out)

    def deriv(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape)
        for amp, freq, phase in self.terms:
            out = out - amp * freq * np.sin(freq * u + phase)
        return out if out.shape else float(out)

    def stretch(self, n):
        return QuasiPeriodicProfile(
            self.k0, tuple((a, f / n, p) for a, f, p in self.terms))

    def bound(self):
        """Upper bounds for |k| and |k'| (triangle inequality)."""
        kmax = abs(self.k0) + sum(abs(a) for a, _, _ in self.terms)
        kpmax = sum(abs(a * f) for a, f, _ in self.terms)
        return kmax, kpmax


def _real(x):
    """True if x is an int or a float, finite and not a bool."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def parse_profile(text):
    """The profile of a JSON object: {"k0", "terms"} for a
    QuasiPeriodicProfile, else {"T", "k0", "cos", "sin"} for a
    CurvatureProfile (the form CurvatureProfile.to_json writes).  Other
    JSON, or inf or nan in it, raises ValueError naming the two forms."""
    d = json.loads(text)
    try:
        if not isinstance(d, dict) or not all(map(_real, [
                d.get("T", 0), d.get("k0", 0), *d.get("cos", ()), *d.get("sin", ())])):
            raise TypeError
        if "terms" not in d:
            return CurvatureProfile(d["T"], d.get("k0", 0.0),
                                    tuple(d.get("cos", ())), tuple(d.get("sin", ())))
        terms = tuple(tuple(t) for t in d["terms"])
    except (TypeError, KeyError) as exc:
        raise ValueError('a profile is a JSON object {"T", "k0", "cos", "sin"} '
                         '(periodic, T required) or {"k0", "terms"} '
                         f"(quasi-periodic) of finite numbers; got {text}") from exc
    if any(len(t) != 3 or not all(map(_real, t)) for t in terms):
        raise ValueError("each profile term must be [amplitude, frequency, "
                         f"phase]; got {d['terms']!r}")
    return QuasiPeriodicProfile(d.get("k0", 0.0), terms)


# ---------------------------------------------------------------------------
# sampled curves


@dataclass
class S3Curve:
    """Arclength-sampled curve in S^3 with its analytic first and second
    derivatives at the samples (every constructor knows them exactly)."""

    samples: np.ndarray          # (N, 4) unit quaternions
    h: float                     # uniform parameter step
    deriv: np.ndarray            # (N, 4) first derivatives
    deriv2: np.ndarray           # (N, 4) second derivatives
    u0: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[1] != 4:
            raise ValueError("samples must have shape (N, 4)")
        if self.h <= 0:
            raise ValueError("step must be positive")
        # |q|^2 by einsum, so no (N, 4) temporary is built
        err = np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", self.samples,
                                              self.samples)) - 1.0))
        if err > 1e-9:
            raise ValueError(f"samples drifted off S^3 by {err:.3e}")

    @property
    def n(self):
        return self.samples.shape[0]

    @property
    def u_grid(self):
        return self.u0 + self.h * np.arange(self.n)

    def left_translate(self, q):
        """q * a(u); preserves arclength and left body velocity."""
        return S3Curve(qmul(q, self.samples), self.h, qmul(q, self.deriv),
                       qmul(q, self.deriv2), self.u0)

    def right_translate(self, q):
        """a(u) * q; preserves arclength and right body velocity."""
        return S3Curve(qmul(self.samples, q), self.h, qmul(self.deriv, q),
                       qmul(self.deriv2, q), self.u0)


# ---------------------------------------------------------------------------
# explicit helices (torsion +-1, constant curvature (r^2-1)/r)


def helix(r, tau_sign=1, s_range=(0.0, TWO_PI), h=1e-3):
    """Helix in S^3 with curvature (r^2-1)/r and torsion tau_sign.

    sigma(s) = (r cos(s/r), r sin(s/r), cos(rs), sin(rs)) / sqrt(1+r^2),
    parametrized by arclength; for tau_sign = -1 the third coordinate is
    reflected (an orientation-reversing isometry).  Closed with period
    2 pi r when r is an integer.
    """
    if r <= 1:
        raise ValueError("helix requires r > 1 (curvature formula degenerates)")
    if tau_sign not in (+1, -1):
        raise ValueError("tau_sign must be +1 or -1")
    s0, s1 = s_range
    steps = max(1, int(round((s1 - s0) / h)))
    hs = (s1 - s0) / steps
    s = s0 + hs * np.arange(steps + 1)
    c = 1.0 / math.sqrt(1.0 + r * r)
    sig = np.stack([r * np.cos(s / r), r * np.sin(s / r),
                    np.cos(r * s), np.sin(r * s)], axis=-1) * c
    dsig = np.stack([-np.sin(s / r), np.cos(s / r),
                     -r * np.sin(r * s), r * np.cos(r * s)], axis=-1) * c
    d2sig = np.stack([-np.cos(s / r) / r, -np.sin(s / r) / r,
                      -r * r * np.cos(r * s), -r * r * np.sin(r * s)], axis=-1) * c
    if tau_sign == -1:
        for arr in (sig, dsig, d2sig):
            arr[:, 2] *= -1.0
    return S3Curve(sig, hs, dsig, d2sig, s0)


def helix_curvature(r):
    return (r * r - 1.0) / r


# ---------------------------------------------------------------------------
# Magnus-4 transport on S^3 (the one ODE kernel)

_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_BLOCK = 4096  # steps per block; bounds the temporary memory of long runs
ODE_STEP = 1e-3  # largest Magnus step of a lift integrated on a node grid


def _ik(p, q):
    """Vectors p i + q k of the i-k plane, shape (..., 3)."""
    p = np.asarray(p, dtype=float)
    return np.stack([p, np.zeros_like(p), np.broadcast_to(q, p.shape)], axis=-1)


def _magnus_factors(wfun, u, h):
    """exp(Omega) for the steps [u, u + h] of a' = a w.

    Two-point Gauss Magnus step of order 4:
    Omega = h/2 (w1 + w2) + sqrt(3)/6 h^2 (w1 x w2), with w1, w2 the body
    velocity at u + (1/2 -+ sqrt(3)/6) h; the commutator term
    sqrt(3)/12 h^2 [w1, w2] is written with [w1, w2] = 2 w1 x w2.
    """
    w1 = wfun(u + _GAUSS[0] * h)
    w2 = wfun(u + _GAUSS[1] * h)
    return qexp_pure(0.5 * h * (w1 + w2)
                     + (math.sqrt(3.0) / 6.0) * h * h * np.cross(w1, w2))


def _tree_product(f):
    """Ordered product f[0] f[1] ... f[-1] along the first axis, halving
    the array each round."""
    while f.shape[0] > 1:
        if f.shape[0] % 2:
            f = np.concatenate([f, np.broadcast_to(QONE, (1,) + f.shape[1:])])
        f = qmul(f[0::2], f[1::2])
    return f[0]


def _prefix_products(f):
    """All ordered partial products f[0] ... f[j] in log2(len(f)) sweeps."""
    d = 1
    while d < f.shape[0]:
        f = np.concatenate([f[:d], qmul(f[:-d], f[d:])])
        d *= 2
    return f


def _steps(length, h):
    """round(length / h) steps (at least 1) for a step h in (0, length]."""
    if not 0.0 < h <= length:
        raise ValueError(f"step h = {h:g} must be in (0, {length:g}], the "
                         "length of the span it integrates")
    return max(1, int(round(length / h)))


def _transport(wfun, u0, length, h, a0=QONE, stride=None):
    """Solve a' = a w(u), a(u0) = a0, for a pure-quaternion velocity w.

    wfun maps an array of u to (..., 3) vectors.  Takes
    steps = round(length / h) Magnus-4 steps of size hs = length / steps;
    a step h outside (0, length] raises ValueError.  Returns (a, hs): with
    stride None, a is the end value, the product of blocks of _BLOCK step
    factors; else stride must divide steps and a is the (steps / stride
    + 1, 4) array of the nodes every stride steps (not renormalized).  The
    factors of each cell of stride steps are multiplied by _tree_product,
    and only the cell products are chained by _prefix_products, so no
    per-step node is kept.
    """
    steps = _steps(length, h)
    hs = length / steps
    acc = np.asarray(a0, dtype=float)
    if stride is None:
        for j0 in range(0, steps, _BLOCK):
            j1 = min(j0 + _BLOCK, steps)
            f = _magnus_factors(wfun, u0 + hs * np.arange(j0, j1), hs)
            acc = qmul(acc, _tree_product(f))
        a = acc
    else:
        cells, rest = divmod(steps, stride)
        if rest:
            raise ValueError(f"stride {stride} does not divide {steps} steps")
        a = np.empty((cells + 1, 4))
        a[0] = acc
        per = max(1, _BLOCK // stride)  # cells per block
        for c0 in range(0, cells, per):
            c1 = min(c0 + per, cells)
            f = _magnus_factors(
                wfun, u0 + hs * np.arange(c0 * stride, c1 * stride), hs)
            cell = _tree_product(f.reshape(c1 - c0, stride, 4).swapaxes(0, 1))
            a[c0 + 1:c1 + 1] = qmul(acc, _prefix_products(cell))
            acc = a[c1]
    if not np.all(np.isfinite(a)):
        raise IntegrationFailure("Magnus transport produced non-finite values")
    return a, hs


# ---------------------------------------------------------------------------
# asymptotic lifts


def lift_body_velocity(k_values, k_derivs):
    """Body angular velocity of the asymptotic lift and its u-derivative.

    w(u) = k/sqrt(1+k^2) i + 1/sqrt(1+k^2) k, a unit pure quaternion
    on the i-k great circle; guarantees unit speed and the asymptotic
    condition <a', a*j> = 0.
    """
    k = np.asarray(k_values, dtype=float)
    root = np.sqrt(1.0 + k * k)
    p = k / root
    q = 1.0 / root
    if k_derivs is None:
        dp = dq = None
    else:
        kp = np.asarray(k_derivs, dtype=float)
        dp = kp / root ** 3
        dq = -k * kp / root ** 3
    return p, q, dp, dq


def _lift_velocity(kfun):
    def w(u):
        p, q, _, _ = lift_body_velocity(kfun(u), None)
        return _ik(p, q)
    return w


def _period_rows(k, h, cells):
    """p when k has a base_period T of a whole number p of node spacings h
    (to 1e-12 T) and the cells span more than T, else None."""
    T = getattr(k, "base_period", None)
    if T is None:
        return None
    p = int(round(T / h))
    return p if 0 < p < cells and abs(p * h - T) <= 1e-12 * T else None


def _fill_periods(first, p, n):
    """The n nodes of a lift of period p rows from its first p + 1 nodes:
    a(u + T) = M a(u) with the monodromy M = a(u0 + T) conj(a(u0)), so
    each later block of p nodes is M times the block before it."""
    M = qnormalize(qmul(first[p], qconj(first[0])))
    a = np.empty((n, 4))
    a[:p + 1] = first
    for j0 in range(p + 1, n, p):
        j1 = min(j0 + p, n)
        a[j0:j1] = qmul(M, a[j0 - p:j1 - p])
    return a


def asymptotic_lift(k, u_range=(0.0, TWO_PI), h=1e-3, a0=QONE):
    """Integrate the asymptotic lift a' = a * w(u) of the curvature
    profile k (k.value and k.deriv) by Magnus-4 steps.

    h is the node spacing (adjusted to divide the range; a spacing outside
    (0, length] raises ValueError).  Each cell between two nodes takes
    ceil(h / ODE_STEP) Magnus steps, multiplied into one cell factor by
    _transport, so only the nodes are kept.  When k has a base_period T of
    a whole number p of node spacings and the range is longer than T, only
    [u0, u0 + T] is integrated and _fill_periods fills every later block of
    p nodes from the monodromy; quasi-periodic profiles and periods of no
    whole number of nodes are integrated over the whole range.

    The integrated nodes are renormalized.  deriv and deriv2 are the
    analytic a w and a (w' - 1) (using w^2 = -1) at every node, formed
    _BLOCK nodes at a time, so the lift holds its three (N, 4) arrays and
    temporaries of one block only.  The Hopf projection traverses a curve
    of geodesic curvature k(u) at speed 2/sqrt(1+k(u)^2).
    """
    u0, u1 = u_range
    cells = _steps(u1 - u0, h)
    hu = (u1 - u0) / cells
    period = _period_rows(k, hu, cells)
    sub = max(1, int(math.ceil(hu / ODE_STEP - 1e-12)))
    out, _ = _transport(_lift_velocity(k.value), u0,
                        u1 - u0 if period is None else period * hu,
                        hu / sub, qnormalize(a0), stride=sub)
    out /= qnorm(out)[:, None]
    if period is not None:
        out = _fill_periods(out, period, cells + 1)
    deriv, deriv2 = np.empty_like(out), np.empty_like(out)
    for j0 in range(0, out.shape[0], _BLOCK):
        b = slice(j0, j0 + _BLOCK)
        u_nodes = u0 + hu * np.arange(j0, min(j0 + _BLOCK, out.shape[0]))
        p, q, dp, dq = lift_body_velocity(k.value(u_nodes), k.deriv(u_nodes))
        deriv[b] = qmul(out[b], pure(_ik(p, q)))
        deriv2[b] = -out[b] + qmul(out[b], pure(_ik(dp, dq)))
    return S3Curve(out, hu, deriv, deriv2, u0)


def lift_product(k, length, h=1e-3):
    """a(length) for the asymptotic lift with a(0) = 1, by Magnus-4 steps
    of size h (adjusted to divide length; h must be in (0, length]).

    The same kernel as asymptotic_lift, but the step factors are only
    multiplied together, so no per-node arrays are kept.
    """
    return _transport(_lift_velocity(k.value), 0.0, length, h)[0]


# ---------------------------------------------------------------------------
# measured Frenet data (finite differences; used as an independent check)


def _cross4(a, b, c):
    """Vector d with det[a, b, c, d] >= 0, the R^4 analogue of the cross product."""
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    m = np.stack([a, b, c], axis=-2)  # (..., 3, 4)
    d = np.empty(a.shape)
    cols = [0, 1, 2, 3]
    sign = -1.0
    for i in cols:
        rest = [j for j in cols if j != i]
        d[..., i] = sign * np.linalg.det(m[..., :, rest])
        sign = -sign
    return d


def frenet_s3(curve: S3Curve):
    """Curvature and torsion of an arclength curve in S^3 by central differences.

    Uses the intrinsic frame: kappa = |sigma'' + sigma|, torsion from the
    binormal completing (sigma, T, N) to a positively oriented R^4 frame.
    Every derivative is the fourth-order stencil of _fd, and the ends where
    it has none are trimmed: T and N lose two nodes per side, and N' two
    more of N's, so (kappa, tau) are on the nodes four in from each end.
    A curve of fewer than 9 samples keeps no node and raises ValueError.
    """
    s = curve.samples
    if len(s) < 9:
        raise ValueError(f"a curve of {len(s)} samples is too short for its "
                         "curvature and torsion, which trim 4 nodes at each "
                         "end; at least 9 samples are needed")
    h = curve.h
    sig = s[2:-2]
    T = fd.d1(s, h)[2:-2]
    acc = fd.d2(s, h)[2:-2] + sig  # covariant acceleration in S^3
    kappa = np.linalg.norm(acc, axis=-1)
    N = acc / kappa[:, None]
    B = _cross4(*(x[2:-2] for x in (sig, T, N)))
    B /= np.linalg.norm(B, axis=-1)[:, None]
    dN = fd.d1(N, h)[2:-2]
    tau = np.einsum("ij,ij->i", dN, B)
    return kappa[2:-2], tau
