"""Quaternion algebra on S^3, the adjoint action and the Hopf fibration.

Quaternions are plain float arrays of shape (..., 4) in the basis order
(1, i, j, k) with Hamilton's sign convention ij = k.  Points of S^2 are
float arrays of shape (..., 3) holding the (i, j, k) coordinates of a
unit pure quaternion.  All functions broadcast over leading axes.
"""

import numpy as np

UNIT_TOL = 1e-12

QONE = np.array([1.0, 0.0, 0.0, 0.0])
QI = np.array([0.0, 1.0, 0.0, 0.0])
QJ = np.array([0.0, 0.0, 1.0, 0.0])
QK = np.array([0.0, 0.0, 0.0, 1.0])


def quat(w, x, y, z):
    return np.array([w, x, y, z], dtype=float)


def qmul(a, b):
    """Hamilton product a*b; |a*b| = |a||b|."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a):
    a = np.asarray(a, dtype=float)
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def qnorm(a):
    return np.linalg.norm(np.asarray(a, dtype=float), axis=-1)


def qnormalize(a):
    a = np.asarray(a, dtype=float)
    return a / qnorm(a)[..., None]


def qinv(a):
    a = np.asarray(a, dtype=float)
    return qconj(a) / (qnorm(a) ** 2)[..., None]


def unit_quaternion(w, x, y, z):
    """Construct a point of S^3, enforcing |q| = 1 within UNIT_TOL."""
    q = quat(w, x, y, z)
    n = qnorm(q)
    if abs(n - 1.0) > UNIT_TOL:
        raise ValueError(f"not a unit quaternion: |q| - 1 = {n - 1.0:.3e}")
    return q


def s2_point(x, y, z):
    """Construct a point of S^2 (unit pure quaternion coordinates)."""
    p = np.array([x, y, z], dtype=float)
    n = np.linalg.norm(p)
    if abs(n - 1.0) > UNIT_TOL:
        raise ValueError(f"not a unit vector: |p| - 1 = {n - 1.0:.3e}")
    return p


def pure(v):
    """Embed an (..., 3) vector as a pure quaternion."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 1:] = v
    return out


def vec(q):
    """Imaginary part of a quaternion as an (..., 3) vector."""
    return np.asarray(q, dtype=float)[..., 1:]


def ad(x, y):
    """Adjoint action Ad(x)y = x*y*conj(x) for unit x.

    A linear isometry of R^4 preserving the pure-imaginary 3-space.
    """
    return qmul(qmul(x, y), qconj(x))


def rotation_matrix(x):
    """Matrix of Ad(x) on the pure quaternions: column m is Ad(x) e_m."""
    x = np.asarray(x, dtype=float)
    return np.swapaxes(vec(ad(x[..., None, :], pure(np.eye(3)))), -1, -2)


def hopf(x):
    """Hopf fibration h(x) = Ad(x)i, an (..., 3) point of S^2.

    Constant along fibers: h(x * e^{i v}) = h(x).
    """
    return vec(ad(x, QI))


def fiber_circle(v):
    """Fiber parametrization e^{iv} = cos v + i sin v, period 2*pi."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (4,))
    out[..., 0] = np.cos(v)
    out[..., 1] = np.sin(v)
    return out


def qexp_pure(v):
    """exp of a pure quaternion given as an (..., 3) vector."""
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 0] = np.cos(theta)
    small = theta < 1e-300
    s = np.where(small, 1.0, np.sinc(theta / np.pi))  # sin(theta)/theta
    out[..., 1:] = v * s[..., None]
    return out
