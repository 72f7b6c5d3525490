import random
from fractions import Fraction

import pytest

from tangles.rings import Laurent, Matrix, kron_all

A = Laurent.monomial(1)


def rand_laurent(rng):
    return Laurent(
        {rng.randrange(-5, 6): rng.randrange(-4, 5) for _ in range(rng.randrange(0, 5))}
    )


def test_ring_laws_random():
    rng = random.Random(3)
    for _ in range(500):
        x, y, z = (rand_laurent(rng) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + Laurent.zero() == x
        assert x * Laurent.one() == x
        assert x - x == Laurent.zero()


def test_substitute_inverse_is_ring_involution():
    rng = random.Random(4)
    for _ in range(200):
        x, y = rand_laurent(rng), rand_laurent(rng)
        assert (x + y).substitute_inverse() == x.substitute_inverse() + y.substitute_inverse()
        assert (x * y).substitute_inverse() == x.substitute_inverse() * y.substitute_inverse()
        assert x.substitute_inverse().substitute_inverse() == x


def test_int_interop():
    assert A + 1 == Laurent({1: 1, 0: 1})
    assert 2 * A == Laurent({1: 2})
    assert 1 - A == Laurent({1: -1, 0: 1})


def test_constants_hash_as_the_integers_they_equal():
    for n in (-2, 0, 1, 7):
        assert hash(Laurent.promote(n)) == hash(n)
    assert {Laurent.one(), 1} == {1} and {Laurent.zero(), 0} == {0}
    assert len({Laurent.monomial(1), Laurent.monomial(-1), Laurent.one()}) == 3


def test_printing():
    delta = Laurent({2: -1, -2: -1})
    assert str(delta) == "-A^2-A^-2"
    assert str(Laurent.zero()) == "0"
    assert str(Laurent.one()) == "1"
    assert str(Laurent({1: 1})) == "A"
    assert str(Laurent({3: -1, 0: 2, -1: 1})) == "-A^3+2+A^-1"


def test_parse_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        x = rand_laurent(rng)
        assert Laurent.parse(str(x)) == x
    assert Laurent.parse("-A^2-A^-2") == Laurent({2: -1, -2: -1})
    with pytest.raises(ValueError):
        Laurent.parse("A^^2")


def test_laurent_refuses_input_it_would_truncate():
    for coeffs in ({0: Fraction(1, 2)}, {1: 2.7}, {0.5: 1}, {"1": 1}, {1: "2"}):
        with pytest.raises(TypeError):
            Laurent(coeffs)
    with pytest.raises(TypeError):
        Laurent.monomial(1, Fraction(1, 3))
    assert Laurent({2.0: Fraction(6, 2)}) == Laurent({2: 3})


def test_parse_needs_a_sign_between_terms():
    for text in ("AA", "A2", "2A3", "A^2A", "A^-1 2"):
        with pytest.raises(ValueError):
            Laurent.parse(text)
    assert Laurent.parse("+2A-3") == Laurent({1: 2, 0: -3})


def _dict_of(x):
    return dict(x.coeffs) if isinstance(x, Laurent) else ({0: x} if x else {})


def _reference(op, x, y):
    """x op y over plain dicts: every pair of terms, then the zeros dropped."""
    a, b = _dict_of(x), _dict_of(y)
    if op == "*":
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    else:
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + (c if op == "+" else -c)
    return {e: c for e, c in out.items() if c}


def test_operators_match_the_plain_dict_reference_and_own_their_results():
    rng = random.Random(32)
    ops = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}
    for _ in range(300):
        x = rand_laurent(rng)
        others = [
            rand_laurent(rng),
            -x,
            x,
            Laurent.monomial(rng.randrange(-5, 6), rng.choice((-3, -1, 1, 2))),
            0, 1, -1, rng.randrange(-9, 10),
        ]
        for y in others:
            for left, right in ((x, y), (y, x)):
                before = _dict_of(left), _dict_of(right)
                for op, f in ops.items():
                    z = f(left, right)
                    assert isinstance(z, Laurent)
                    assert z.coeffs == _reference(op, left, right), (left, op, right)
                    assert all(type(e) is int and type(c) is int and c for e, c in z.coeffs.items())
                    z.coeffs[99] = 1  # a result owns its dict
                    assert (_dict_of(left), _dict_of(right)) == before
    for x in (Laurent.zero(), A, Laurent({2: 3, -1: -2})):
        before = dict(x.coeffs)
        for y in (-x, x.substitute_inverse(), x * 1, 1 * x, x + 0):
            y.coeffs[99] = 1
        assert x.coeffs == before
        assert (x + (-x)).coeffs == {} and (x - x).coeffs == {}
        assert (x * 0).coeffs == {} and (0 * x).coeffs == {}
    assert (A - A ** -1) * (A + A ** -1) == Laurent({2: 1, -2: -1})
    assert (A + A ** -1) * (A - A ** -1) * 3 == Laurent({2: 3, -2: -3})


def test_units():
    assert Laurent.monomial(5, -1).is_unit()
    assert not Laurent({1: 2}).is_unit()
    assert not Laurent({1: 1, 0: 1}).is_unit()
    u = Laurent.monomial(-3, -1)
    assert u * u.inverse_of_unit() == Laurent.one()
    with pytest.raises(ArithmeticError):
        (A + 1).inverse_of_unit()


def test_pow_negative():
    assert A ** -2 == Laurent.monomial(-2)
    minus_a_cubed = Laurent.monomial(3, -1)
    assert minus_a_cubed ** -1 == Laurent.monomial(-3, -1)


def test_matrix_product_and_identity():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    i = Matrix.identity(2)
    assert m @ i == m and i @ m == m
    n = Matrix.from_rows([[0, 1], [1, 0]])
    assert (m @ n).to_rows() == [[2, 1], [4, 3]]


def test_matrix_shapes():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)


def test_matrix_kron():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (4, 4)
    assert k.entry(0, 1) == 1 and k.entry(0, 3) == 2
    # mixed-ring entries promote transparently
    c = Matrix.from_rows([[A, 0], [0, 1]])
    assert (c.kron(b)).entry(0, 1) == A


def test_kron_all_and_scalar():
    assert kron_all([]) == Matrix.identity(1)
    s = Matrix(1, 1, {(0, 0): Fraction(1, 2)})
    assert s.scalar() == Fraction(1, 2)
    with pytest.raises(ValueError):
        Matrix.identity(2).scalar()


def test_matrix_kron_bilinear_random():
    rng = random.Random(6)
    for _ in range(50):
        a = Matrix.from_rows([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)])
        b = Matrix.from_rows([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)])
        c = Matrix.from_rows([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)])
        d = Matrix.from_rows([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)])
        assert (a @ b).kron(c @ d) == (a.kron(c)) @ (b.kron(d))


def test_divide_exact_inverts_multiplication():
    rng = random.Random(17)
    delta = Laurent({2: -1, -2: -1})
    divisors = [delta, Laurent.one(), Laurent.monomial(-3, -1), Laurent({1: 1, 0: 2, -4: -3})]
    for _ in range(200):
        p = rand_laurent(rng)
        q = rng.choice(divisors + [rand_laurent(rng) + Laurent.monomial(6, rng.choice((1, -1)))])
        assert (p * q).divide_exact(q) == p


def test_divide_exact_rejects():
    delta = Laurent({2: -1, -2: -1})
    with pytest.raises(ArithmeticError):
        (delta + 1).divide_exact(delta)  # not exact
    with pytest.raises(ArithmeticError):
        Laurent.monomial(5).divide_exact(delta)
    with pytest.raises(ArithmeticError):
        A.divide_exact(Laurent.zero())
    with pytest.raises(ArithmeticError):
        (A * 2).divide_exact(Laurent({1: 2, 0: 1}))  # leading coefficient 2


def test_differences_build_no_negation(monkeypatch):
    rng = random.Random(33)
    scalars = (lambda: rand_laurent(rng), lambda: Fraction(rng.randrange(-4, 5), 3))

    def entries(scalar):  # ints mix with either ring
        return {(i, j): rng.choice((scalar(), 2, -1)) for i in range(3) for j in range(2) if rng.random() < 0.7}

    pairs = [(Matrix(3, 2, entries(f)), Matrix(3, 2, entries(f))) for f in scalars for _ in range(25)]
    negated = [(m, m + Matrix(3, 2, {k: -v for k, v in n.entries.items()}), n) for m, n in pairs]
    laurents = [(x, -x) for x in (rand_laurent(rng) for _ in range(50))]
    monkeypatch.setattr(Matrix, "__neg__", lambda m: pytest.fail("a negated matrix was built"))
    monkeypatch.setattr(Laurent, "__neg__", lambda x: pytest.fail("a negated polynomial was built"))
    for x, minus_x in laurents:
        assert 1 - x == minus_x + 1 and x - A == x + (-1) * A and x - x == 0
    for m, expected, n in negated:
        assert m - n == expected
        assert (m - m).entries == {}
    with pytest.raises(ValueError, match="shape mismatch"):
        Matrix(3, 2) - Matrix(2, 3)


def test_matrix_equality_compares_shapes_and_stored_entries():
    # no matrix stores a zero, and a constant Laurent entry equals its int
    constants = Matrix.from_rows([[Laurent({0: 2}), Laurent.zero()], [0, Laurent({0: -1})]])
    assert Matrix.from_rows([[2, 0], [0, -1]]) == constants
    assert Matrix.identity(2).scale(A) - Matrix.identity(2).scale(A) == Matrix(2, 2)
    assert Matrix.from_rows([[1, A]]) != Matrix.from_rows([[1, A * A]])
    # shapes count even when nothing is stored
    assert Matrix(2, 3) != Matrix(3, 2)
    assert Matrix(2, 3) == Matrix(2, 3, {(1, 2): 0})
    # a Laurent entry equals a Fraction entry only when both are one integer
    assert Matrix.row([A]) != Matrix.row([Fraction(1, 2)])
    assert Matrix.row([Laurent.one()]) != Matrix.row([Fraction(1, 2)])
    assert Matrix.row([Fraction(2)]) == Matrix.row([2])


def test_ring_equality_is_transitive_through_the_integers():
    # Laurent.one() == 1 == Fraction(1), so the constant equals the Fraction
    assert Laurent.one() == Fraction(1) and Fraction(1) == Laurent.one()
    assert Matrix.row([Laurent.one()]) == Matrix.row([Fraction(1)])
    assert Laurent.one() != Fraction(1, 2)
    assert Laurent({0: -3}) == Fraction(-3) and A != Fraction(1)
    assert hash(Laurent.one()) == hash(Fraction(1))
