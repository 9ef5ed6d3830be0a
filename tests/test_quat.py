import math

import numpy as np
import pytest

from flatsurf4.quat import (
    QI, QJ, QK, QONE, ad, fiber_circle, hopf, pure, qconj, qexp_pure, qmul,
    qnorm, qnormalize, vec,
)


def random_unit(rng, n=1):
    q = rng.standard_normal((n, 4))
    return qnormalize(q)


def test_hamilton_table():
    assert np.allclose(qmul(QI, QJ), QK, atol=1e-15)
    assert np.allclose(qmul(QJ, QK), QI, atol=1e-15)
    assert np.allclose(qmul(QK, QI), QJ, atol=1e-15)
    assert np.allclose(qmul(QI, QI), -QONE, atol=1e-15)


def test_identity_and_plus_minus_i():
    q = np.array([0.3, -0.1, 0.7, 0.2])
    assert np.allclose(qmul(q, QONE), q)
    a = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)
    b = np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2)
    # (1+i)/sqrt2 * (1-i)/sqrt2 = (1 - i + i - i^2)/2 = 1
    assert np.allclose(qmul(a, b), QONE, atol=1e-15)


def test_associativity_and_norm_multiplicativity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = rng.standard_normal((3, 4))
        left = qmul(qmul(a, b), c)
        right = qmul(a, qmul(b, c))
        assert np.max(np.abs(left - right)) < 1e-12
        assert abs(qnorm(qmul(a, b)) - qnorm(a) * qnorm(b)) < 1e-12


def test_ad_basics():
    assert np.allclose(ad(QONE, QJ), QJ)
    # i j conj(i) = i j (-i) = -j
    assert np.allclose(ad(QI, QJ), -QJ, atol=1e-15)
    rng = np.random.default_rng(1)
    for x in random_unit(rng, 20):
        y = ad(x, QI)
        assert abs(qnorm(y) - 1.0) < 1e-12
        assert abs(y[0]) < 1e-12  # stays pure imaginary


def test_ad_is_isometry_of_pure_space():
    rng = np.random.default_rng(2)
    for x in random_unit(rng, 20):
        frame = np.stack([vec(ad(x, QI)), vec(ad(x, QJ)), vec(ad(x, QK))])
        gram = frame @ frame.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_hopf_values():
    assert np.allclose(hopf(QONE), [1, 0, 0])
    # j i conj(j) = -i
    assert np.allclose(hopf(QJ), [-1, 0, 0], atol=1e-15)
    for theta in (0.3, 1.7):
        assert np.allclose(hopf(fiber_circle(theta)), [1, 0, 0], atol=1e-15)


def test_hopf_fiber_invariance():
    rng = np.random.default_rng(3)
    qs = random_unit(rng, 100)
    vs = rng.uniform(-10, 10, 100)
    for q, v in zip(qs, vs):
        d = hopf(qmul(q, fiber_circle(v))) - hopf(q)
        assert np.linalg.norm(d) < 1e-12


def test_fiber_circle_endpoints():
    assert np.allclose(fiber_circle(0.0), QONE)
    assert np.allclose(fiber_circle(math.pi), -QONE, atol=1e-12)
    assert np.allclose(fiber_circle(2 * math.pi), QONE, atol=1e-12)


def test_qexp_pure_matches_series():
    v = np.array([0.0, 0.0, 0.7])
    q = qexp_pure(v)
    assert np.allclose(q, [math.cos(0.7), 0, 0, math.sin(0.7)], atol=1e-15)
    assert np.allclose(qexp_pure(np.zeros(3)), QONE)


def test_pure_vec_roundtrip():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(3)
    assert np.allclose(vec(pure(v)), v)
    assert np.allclose(qconj(pure(v)), -pure(v))
