"""Tests for the exact arithmetic substrate."""

import random
from fractions import Fraction

import pytest

from qes_sextic.exact import ExactMatrix, TPoly, as_rational


# ---------------------------------------------------------------------------
# rationals

def test_textbook_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_canonical_form():
    x = Fraction(2, 4)
    assert x.numerator == 1 and x.denominator == 2
    z = Fraction(0, 7)
    assert z.numerator == 0 and z.denominator == 1
    neg = Fraction(3, -6)
    assert neg.numerator == -1 and neg.denominator == 2


def test_huge_cancellation_against_integer_oracle():
    a = Fraction(10**40, 3)
    b = Fraction(3, 10**40)
    product = a * b
    assert product == 1
    # independent big-integer cross-multiplication
    assert a.numerator * b.numerator == a.denominator * b.denominator


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_field_axioms_on_random_big_values():
    rng = random.Random(20240501)

    def rand_rational():
        num = rng.randint(-(10**30), 10**30)
        den = rng.randint(1, 10**30)
        return Fraction(num, den)

    for _ in range(200):
        a, b, c = rand_rational(), rand_rational(), rand_rational()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1
        # total order consistent with subtraction
        assert (a < b) == ((a - b) < 0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        TPoly((1.0,))
    with pytest.raises(TypeError):
        ExactMatrix([[0.25]])
    # arithmetic validates its scalar operands too
    p = TPoly((1, Fraction(1, 3)))
    for operation in (
        lambda: p + 0.5, lambda: 0.5 + p, lambda: p - 0.5, lambda: 0.5 - p,
        lambda: p * 0.5, lambda: 0.5 * p, lambda: p / 0.5,
    ):
        with pytest.raises(TypeError):
            operation()


# ---------------------------------------------------------------------------
# polynomials in t

def test_t_times_t():
    t = TPoly.t()
    assert t * t == TPoly((0, 0, 1))


def test_evaluate():
    p = TPoly((-1, 0, 1))  # t^2 - 1
    assert p.evaluate(2) == 3
    assert p.evaluate(Fraction(1, 2)) == Fraction(-3, 4)


def test_trailing_zeros_stripped():
    assert TPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert TPoly((0, 0)).is_zero
    assert TPoly().degree == -1
    assert TPoly((5,)).degree == 0


def test_scalar_operations():
    p = TPoly((1, 1))
    assert 2 * p == TPoly((2, 2))
    assert p * Fraction(1, 2) == TPoly((Fraction(1, 2), Fraction(1, 2)))
    assert p / 2 == TPoly((Fraction(1, 2), Fraction(1, 2)))
    assert p - 1 == TPoly.t()
    with pytest.raises(ZeroDivisionError):
        p / 0


@pytest.mark.parametrize("scalar", [0, 3, -7, Fraction(1, 2), Fraction(-5, 3)])
def test_constants_hash_as_the_scalars_they_equal(scalar):
    # equal objects must hash equal, or sets and dicts tell them apart
    constant = TPoly.constant(scalar)
    assert constant == scalar
    assert hash(constant) == hash(scalar)
    assert scalar in {constant} and constant in {scalar}
    assert TPoly((scalar, 1)) not in {constant}


def test_arithmetic_results_are_canonical():
    # every result goes through the validating constructor, and must come
    # out exactly as that constructor builds it from the result's own
    # coefficients, whichever operands the operation was given
    rng = random.Random(1717)

    def rand_coeff():
        if rng.random() < 0.2:
            return Fraction(0)
        return Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**40))

    def rand_poly():
        return TPoly([rand_coeff() for _ in range(rng.randint(0, 7))])

    def rand_scalar():
        if rng.random() < 0.5:
            return rng.choice((0, 1, -1, rng.randint(-(10**30), 10**30)))
        return rng.choice((Fraction(0), rand_coeff()))

    for _ in range(300):
        p, q = rand_poly(), rand_poly()
        if p.coeffs and rng.random() < 0.3:
            # q shares p's top coefficients, so p - q cancels its top terms
            cut = rng.randint(0, len(p.coeffs) - 1)
            q = TPoly([rand_coeff() for _ in range(cut)] + list(p.coeffs[cut:]))
        c = rand_scalar()
        # one degree above p at least, so p - longer negates longer's tail
        longer = TPoly([rand_coeff() for _ in range(len(p.coeffs))] + [1])
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        px, qx = p.evaluate(x), q.evaluate(x)
        results = [
            (p + q, px + qx), (p - q, px - qx), (q - p, qx - px),
            (p + (-q), px - qx), (-p, -px), (p * q, px * qx),
            (p * (-p), -px * px), (p - p, 0), (p + c, px + c), (c + p, c + px),
            (p - c, px - c), (c - p, c - px), (p * c, px * c), (c * p, c * px),
            (TPoly() * p, 0), (p * TPoly(), 0), (p * 0, 0), (0 * p, 0),
            (p - longer, px - longer.evaluate(x)),
        ]
        if c:
            results.append((p / c, px / c))
        for result, value in results:
            assert result.evaluate(x) == value
            assert type(result) is TPoly
            assert result == TPoly(result.coeffs)
            assert hash(result) == hash(TPoly(result.coeffs))
            assert all(type(a) is Fraction for a in result.coeffs)
            assert not result.coeffs or result.coeffs[-1] != 0


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(99)

    def rand_poly():
        return TPoly(
            [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
             for _ in range(rng.randint(0, 6))]
        )

    for _ in range(100):
        p, q = rand_poly(), rand_poly()
        t0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        assert (p * q).evaluate(t0) == p.evaluate(t0) * q.evaluate(t0)
        assert (p + q).evaluate(t0) == p.evaluate(t0) + q.evaluate(t0)


def test_poly_string_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        p = TPoly(
            [Fraction(rng.randint(-99, 99), rng.randint(1, 99))
             for _ in range(rng.randint(0, 8))]
        )
        assert TPoly([Fraction(s) for s in p.to_strings()]) == p


def test_poly_str_and_equality_with_a_non_number():
    assert str(TPoly((0, -1))) == "-t"
    assert str(TPoly((1, 0, -1))) == "1 - t^2"
    assert (TPoly.t() == "t") is False
    assert (ExactMatrix([[1]]) == [[1]]) is False


# ---------------------------------------------------------------------------
# matrices

def test_identity_is_neutral():
    rng = random.Random(11)
    a = ExactMatrix(
        [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
    )
    eye = ExactMatrix.diagonal([1] * 4)
    assert eye @ a == a
    assert a @ eye == a


def test_involution_square_is_scaled_identity():
    m2 = ExactMatrix([[1, 1, 1], [2, 0, -2], [1, -1, 1]])
    assert m2 @ m2 == ExactMatrix.diagonal([4, 4, 4])


def test_matmul_associative_on_random_triples():
    rng = random.Random(2718)
    for _ in range(20):
        mats = [
            ExactMatrix(
                [[rng.randint(-10, 10) for _ in range(4)] for _ in range(4)]
            )
            for _ in range(3)
        ]
        a, b, c = mats
        assert (a @ b) @ c == a @ (b @ c)


def test_matmul_matches_naive_reference():
    rng = random.Random(31415)
    for _ in range(10):
        a = [[Fraction(rng.randint(-20, 20), rng.randint(1, 7))
              for _ in range(5)] for _ in range(5)]
        b = [[Fraction(rng.randint(-20, 20), rng.randint(1, 7))
              for _ in range(5)] for _ in range(5)]
        product = ExactMatrix(a) @ ExactMatrix(b)
        for i in range(5):
            for j in range(5):
                expected = sum(a[i][k] * b[k][j] for k in range(5))
                assert product[i, j] == TPoly.constant(expected)


def test_dimension_mismatch():
    a = ExactMatrix.diagonal([1] * 2)
    b = ExactMatrix.diagonal([1] * 3)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2], [3]])


def test_equal_matrices_hash_equal():
    # scalar entries become constant TPolys, which hash as their scalars
    scalars = ExactMatrix([[1, 0], [Fraction(1, 2), -3]])
    polys = ExactMatrix([[TPoly.one(), TPoly.zero()],
                         [TPoly.constant(Fraction(1, 2)), TPoly.constant(-3)]])
    assert scalars == polys
    assert hash(scalars) == hash(polys)
    assert polys in {scalars}
    assert ExactMatrix.diagonal([1, -3]) not in {scalars}


def test_poly_entries_and_scaling():
    t = TPoly.t()
    m = ExactMatrix([[t, 1], [0, t * t]])
    doubled = m * 2
    assert doubled[0, 0] == TPoly((0, 2))
    scaled = m * t
    assert scaled[1, 1] == TPoly((0, 0, 0, 1))
    assert (m - m).is_zero
