import numpy as np
import pytest

from anyonsim.errors import UsageError
from anyonsim.oracle import dense_operator, random_hermitian_pauli
from anyonsim.pauli import PauliString, commutation_phase, multiply
from anyonsim.weyl import (WeylString, weyl_braiding_phase, weyl_gate_count,
                           weyl_multiply)


def _random_weyl(d, sites, rng):
    support = {q: (int(rng.integers(d)), int(rng.integers(d)))
               for q in range(sites)}
    return WeylString(d, int(rng.integers(2 * d)), support)


def test_single_site_relation_all_d():
    for d in range(2, 8):
        x = WeylString.x_power(d, [0], 1)
        z = WeylString.z_power(d, [0], 1)
        xz = weyl_multiply(x, z)
        zx = weyl_multiply(z, x)
        # X Z = w^-1 Z X: phases differ by one w unit (two half-units)
        assert (zx.phase - xz.phase) % (2 * d) == 2
        assert xz.support == zx.support


def test_matrices_validate_products_d_le_5():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4, 5):
        omega = np.exp(2j * np.pi / d)
        for _ in range(60):
            p = _random_weyl(d, 3, rng)
            q = _random_weyl(d, 3, rng)
            mp, mq = dense_operator(p, 3), dense_operator(q, 3)
            assert np.allclose(dense_operator(weyl_multiply(p, q), 3), mp @ mq)
            k = weyl_braiding_phase(p, q)
            assert np.allclose(mp @ mq, omega ** k * (mq @ mp))
            inv = p.inverse()
            prod = weyl_multiply(p, inv)
            assert prod == WeylString.identity(d)


def test_clock_shift_commutation_d3():
    d = 3
    omega = np.exp(2j * np.pi / d)
    x = dense_operator(WeylString.x_power(d, [0], 1))
    z = dense_operator(WeylString.z_power(d, [0], 1))
    assert np.allclose(x @ z, omega ** -1 * (z @ x))


def test_d2_embeds_pauli():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p2 = PauliString(int(rng.integers(4)), random_hermitian_pauli(4, rng).support)
        q2 = PauliString(int(rng.integers(4)), random_hermitian_pauli(4, rng).support)
        wp = WeylString(2, p2.phase, {k: v for k, v in p2.support.items()})
        wq = WeylString(2, q2.phase, {k: v for k, v in q2.support.items()})
        prod_pauli = multiply(p2, q2)
        prod_weyl = weyl_multiply(wp, wq)
        assert prod_weyl.phase == prod_pauli.phase
        assert prod_weyl.support == prod_pauli.support
        assert wp.inverse().phase == p2.inverse().phase
        assert wp.inverse().support == p2.inverse().support
        assert commutation_phase(p2, q2) == (-1) ** weyl_braiding_phase(wp, wq)


def test_generator_order():
    d = 5
    z = WeylString.z_power(d, [0], 1)
    acc = WeylString.identity(d)
    for _ in range(d):
        acc = weyl_multiply(acc, z)
    assert acc == WeylString.identity(d)


def test_braiding_phase_table():
    for d in range(2, 8):
        for a in range(d):
            for b in range(d):
                zs = WeylString.z_power(d, [0, 1], a)
                xs = WeylString.x_power(d, [1, 2], b)
                assert weyl_braiding_phase(zs, xs) == (a * b) % d
    # a = 0 -> trivial; specific published entries
    assert weyl_braiding_phase(WeylString.z_power(3, [0], 0),
                               WeylString.x_power(3, [0], 2)) == 0
    assert weyl_braiding_phase(WeylString.z_power(3, [0, 1], 1),
                               WeylString.x_power(3, [1, 2], 2)) == 2
    assert weyl_braiding_phase(WeylString.z_power(4, [0, 1], 2),
                               WeylString.x_power(4, [1, 2], 2)) == 0  # w^4 = 1


def test_braiding_matrices_d_le_5():
    for d in (2, 3, 4, 5):
        omega = np.exp(2j * np.pi / d)
        for a in range(d):
            for b in range(d):
                zs = WeylString.z_power(d, [0, 1], a)
                xs = WeylString.x_power(d, [1, 2], b)
                m = dense_operator(zs.inverse(), 3) @ dense_operator(xs.inverse(), 3) \
                    @ dense_operator(zs, 3) @ dense_operator(xs, 3)
                k = weyl_braiding_phase(zs, xs)
                assert np.allclose(m, omega ** k * np.eye(d ** 3))


def test_braiding_composition():
    d = 5
    b = 3
    xs = WeylString.x_power(d, [1, 2], b)
    for a1 in range(d):
        for a2 in range(d):
            k1 = weyl_braiding_phase(WeylString.z_power(d, [0, 1], a1), xs)
            k2 = weyl_braiding_phase(WeylString.z_power(d, [0, 1], a2), xs)
            k12 = weyl_braiding_phase(WeylString.z_power(d, [0, 1], a1 + a2), xs)
            assert (k1 + k2) % d == k12


def test_braiding_commutator_always_central():
    # group commutators of Weyl strings are central, so the geometry guard
    # can never fire; partial overlaps just count crossings
    d = 3
    zs = WeylString.z_power(d, [0], 1)
    xs = WeylString.x_power(d, [0, 1], 1)
    assert weyl_braiding_phase(zs, xs) == 1  # single shared site


def test_gate_count():
    assert weyl_gate_count(2) == 1
    assert weyl_gate_count(3) == 2
    assert weyl_gate_count(7) == 6
    with pytest.raises(UsageError):
        weyl_gate_count(1)
    # a dimension is an integer: not a fraction read as d - 1, nor a string
    for call in (lambda: weyl_gate_count(2.5), lambda: WeylString("3")):
        with pytest.raises(UsageError, match=r"^d must be an integer"):
            call()


def test_mismatched_d_rejected():
    with pytest.raises(UsageError):
        weyl_multiply(WeylString.identity(2), WeylString.identity(3))
