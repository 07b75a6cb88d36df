import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import Halton, VanDerCorput, lift, prefix, radical_inverse
from disclab.sequences import radical_inverses


def test_radical_inverse_examples():
    assert radical_inverse(0, 2) == 0.0
    assert radical_inverse(3, 2) == 0.75
    assert radical_inverse(5, 3) == pytest.approx(7.0 / 9.0, rel=0, abs=1e-15)


def test_radical_inverse_base_guard():
    with pytest.raises(ValueError):
        radical_inverse(1, 1)
    with pytest.raises(ValueError):
        radical_inverse(2**53, 2)
    with pytest.raises(ValueError):
        radical_inverse(-1, 2)


def test_radical_inverse_refuses_non_integers():
    # a float base or index used to be digit-split as is: 0.36 and 0.5 here
    with pytest.raises(ValueError, match="^base must be an integer"):
        radical_inverse(3, 2.5)
    with pytest.raises(ValueError, match="^index must be an integer"):
        radical_inverse(2.5, 2)
    assert radical_inverse(np.int64(3), np.int64(2)) == radical_inverse(3, 2) == 0.75


@given(st.integers(0, 10**9), st.integers(2, 16))
@settings(max_examples=300)
def test_radical_inverse_in_unit_interval(k, b):
    r = radical_inverse(k, b)
    assert 0.0 <= r < 1.0


@given(st.integers(1, 10))
def test_radical_inverse_dyadic_prefix_is_grid(m):
    vals = {radical_inverse(k, 2) for k in range(2**m)}
    assert vals == {j / 2**m for j in range(2**m)}


def test_radical_inverse_injective_on_block():
    vals = [radical_inverse(k, 3) for k in range(3**5)]
    assert len(set(vals)) == len(vals)


def test_vdc_prefix():
    p = prefix(VanDerCorput(2), 4)
    np.testing.assert_array_equal(p.coords.ravel(), [0.0, 0.5, 0.25, 0.75])
    assert prefix(VanDerCorput(2), 1).coords.ravel().tolist() == [0.0]


def test_halton_prefix():
    p = prefix(Halton((2, 3)), 2)
    assert p.coords[0].tolist() == [0.0, 0.0]
    assert p.coords[1, 0] == 0.5
    assert p.coords[1, 1] == pytest.approx(1.0 / 3.0)


def _radical_inverse_digit_loop(k: int, base: int) -> float:
    """Python-int digit loop: r += digit * scale; scale *= 1 / base."""
    inv = 1.0 / base
    r, scale = 0.0, inv
    while k:
        k, digit = divmod(k, base)
        r += digit * scale
        scale *= inv
    return r


@pytest.mark.parametrize(
    "gen", [VanDerCorput(2), VanDerCorput(3), VanDerCorput(7), Halton((2, 3)),
            Halton((2, 3, 5, 7, 11))], ids=lambda g: g.name,
)
def test_prefix_is_the_digit_loop_bit_for_bit(gen):
    n = 3000
    want = [[_radical_inverse_digit_loop(k, b) for b in gen.bases] for k in range(n)]
    got = prefix(gen, n).coords
    assert got.tobytes() == np.array(want).tobytes()
    assert [gen.term(k) for k in (0, 1, 2999)] == [tuple(got[k]) for k in (0, 1, 2999)]


def test_radical_inverses_bit_for_bit_at_large_indices():
    k = np.array([2**53 - 1, 2**40 + 12345, 10**15, 0, 1])
    for b in (2, 3, 7, 1_000_003, 2**62 + 1):
        want = [_radical_inverse_digit_loop(int(i), b) for i in k]
        assert radical_inverses(k, b).tolist() == want
        assert [radical_inverse(int(i), b) for i in k] == want
    with pytest.raises(ValueError):
        radical_inverses(np.array([0, 2**53]), 2)
    with pytest.raises(ValueError):
        radical_inverses(k, 2**63)


def test_halton_requires_coprime_bases():
    with pytest.raises(ValueError, match="coprime"):
        Halton((2, 4))
    Halton((2, 3, 5))  # fine


def test_vdc_is_the_one_base_halton():
    g = VanDerCorput(3)
    assert repr(g) == "VanDerCorput(base=3)" and g.name == "vdc(base=3)"
    assert g.base == 3 and g.bases == (3,) and g.d == 1
    assert g == VanDerCorput(3) and hash(g) == hash(VanDerCorput(3))
    assert g != Halton((3,)) and g != VanDerCorput(2)
    assert repr(VanDerCorput()) == "VanDerCorput(base=2)"
    with pytest.raises(ValueError):
        VanDerCorput(1)
    # a float base used to be truncated: 2.9 gave base 2, (2.5, 3) gave (2, 3)
    with pytest.raises(ValueError, match="^base must be an integer"):
        VanDerCorput(2.9)
    with pytest.raises(ValueError, match="^base must be an integer"):
        Halton((2.5, 3))
    assert VanDerCorput(np.int64(3)) == g and Halton(np.array([2, 3])).bases == (2, 3)


def test_prefix_requires_positive_length():
    with pytest.raises(ValueError):
        prefix(VanDerCorput(2), 0)
    # np.arange(2.5) used to give 3 points
    with pytest.raises(ValueError, match="^prefix length must be an integer"):
        prefix(VanDerCorput(2), 2.5)
    assert prefix(VanDerCorput(2), np.int64(3)).n == 3


def test_lift_examples():
    p = lift(VanDerCorput(2), 2)
    assert p.coords.tolist() == [[0.0, 0.0], [0.5, 0.5]]
    p = lift(VanDerCorput(2), 4)
    assert p.coords.tolist() == [[0.0, 0.0], [0.5, 0.25], [0.25, 0.5], [0.75, 0.75]]
    p1 = lift(VanDerCorput(2), 1)
    assert p1.coords.tolist() == [[0.0, 0.0]]


def test_lift_last_coordinates_are_equispaced():
    n = 12
    p = lift(Halton((2, 3)), n)
    assert p.d == 3
    assert p.coords[:, 2].tolist() == [k / n for k in range(n)]


def test_lift_from_explicit_points():
    base = prefix(Halton((2, 3)), 8)
    p = lift(base, 5)
    assert p.n == 5 and p.d == 3
    np.testing.assert_array_equal(p.coords[:, :2], base.coords[:5])


@pytest.mark.parametrize("source", [VanDerCorput(2), prefix(Halton((2, 3)), 8)])
def test_lift_refuses_a_non_integer_length(source):
    # a point set used to fail with a bare TypeError from slicing
    with pytest.raises(ValueError, match="^lift length must be an integer"):
        lift(source, 2.5)
    assert lift(source, np.int64(3)).n == 3


def test_generators_are_pure():
    g = VanDerCorput(2)
    assert g.term(37) == g.term(37)
    h = Halton((2, 3))
    assert h.term(100) == h.term(100)
