from fractions import Fraction as F

import pytest

from metriclie.base import InputError
from metriclie.scalars import QuadExt, frac, sign_of


def test_frac_parsing():
    assert frac("3/5") == F(3, 5)
    assert frac(7) == 7
    assert frac(F(-1, 2)) == F(-1, 2)
    with pytest.raises(InputError):
        frac(0.5)


def test_quadext_arithmetic():
    rt2 = QuadExt(0, 1, 2)
    assert rt2 * rt2 == 2
    x = QuadExt(1, 1, 2)           # 1 + sqrt2
    y = QuadExt(1, -1, 2)          # 1 - sqrt2
    assert x * y == -1
    assert x + y == 2
    assert (x / y) * y == x
    assert 1 / rt2 == QuadExt(0, F(1, 2), 2)
    assert x - 1 == rt2
    assert 2 * rt2 == QuadExt(0, 2, 2)


def test_quadext_signs():
    assert sign_of(QuadExt(1, -1, 2)) == -1   # 1 - sqrt2 < 0
    assert sign_of(QuadExt(3, -2, 2)) == 1    # 3 - 2 sqrt2 > 0
    assert sign_of(QuadExt(0, 0, 2)) == 0
    assert sign_of(QuadExt(-1, 1, 3)) == 1    # sqrt3 > 1
    assert sign_of(F(-2, 7)) == -1
    assert sign_of(0) == 0


def test_quadext_rejects_square_d():
    with pytest.raises(InputError):
        QuadExt(1, 1, 4)
    with pytest.raises(InputError):
        QuadExt(1, 1, -2)
    with pytest.raises(InputError):
        QuadExt(1, 1, 10**400)         # a square past the float range


def test_quadext_takes_d_past_the_float_range():
    x = QuadExt(1, 1, 10**400 + 1)
    assert x.d == 10**400 + 1
    assert x * x == QuadExt(10**400 + 2, 2, 10**400 + 1)


def test_quadext_mixed_roots_rejected():
    with pytest.raises(InputError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)
    # rational values carry their d along without mixing trouble
    assert QuadExt(2, 0, 2) + QuadExt(1, 1, 3) == QuadExt(3, 1, 3)


def test_quadext_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 0, 2) / QuadExt(0, 0, 2)


def test_quadext_float():
    assert abs(float(QuadExt(1, 1, 2)) - 2.414213562373095) < 1e-15
