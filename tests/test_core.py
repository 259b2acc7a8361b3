import numpy as np
import pytest

from nqsent.core import (
    AffineFeature,
    RngStream,
    Subregion,
    affine_tables,
    check_n,
    feature_supnorm,
    spin_matrix,
)
from nqsent.errors import CapacityError, ContractError


def test_enumerate_order_n1():
    # bits 0 is spin -1, bits 1 is spin +1
    assert np.array_equal(spin_matrix(np.arange(2), 1), [[-1.0], [1.0]])


def test_enumerate_order_n2():
    # bit i is spin i: ascending bits order flips spin 0 fastest
    expect = [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]
    assert np.array_equal(spin_matrix(np.arange(4), 2), expect)


def test_enumerate_count_n24_without_materializing():
    check_n(24)  # the default cap admits n=24
    # the first and last of the 2^24 configurations, without the rest
    ends = spin_matrix(np.array([0, (1 << 24) - 1]), 24)
    assert np.array_equal(ends, [[-1.0] * 24, [1.0] * 24])


def test_enumerate_capacity(monkeypatch):
    monkeypatch.delenv("NQS_MAX_N", raising=False)
    with pytest.raises(CapacityError):
        check_n(25)
    with pytest.raises(CapacityError):
        check_n(0)
    # NQS_MAX_N raises the cap
    monkeypatch.setenv("NQS_MAX_N", "26")
    check_n(25)
    monkeypatch.setenv("NQS_MAX_N", "27")
    with pytest.raises(CapacityError):
        check_n(27)


def test_spin_matrix_matches_values():
    sm = spin_matrix(np.array([0, 5, 7]), 3)
    expect = [[-1.0, -1.0, -1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]
    assert sm.dtype == np.float64
    assert np.array_equal(sm, expect)


def test_supnorm_examples():
    assert feature_supnorm(AffineFeature(np.ones(7), 0.0)) == 7.0
    assert feature_supnorm(AffineFeature(np.array([1.0, -2.0]), 3.0)) == 6.0
    assert feature_supnorm(AffineFeature(np.zeros(3), -0.5)) == 0.5


def test_supnorm_attained():
    gen = np.random.default_rng(3)
    w = gen.normal(size=8)
    f = AffineFeature(w, 0.25)
    bits = sum(1 << i for i in range(8) if w[i] > 0)
    value = (spin_matrix(np.array([bits]), 8) @ w + 0.25)[0]
    assert value == pytest.approx(feature_supnorm(f), rel=1e-15)


def test_affine_tables_match_pointwise():
    gen = np.random.default_rng(5)
    weights, bias = gen.normal(size=(3, 5)), gen.normal(size=3)
    table = affine_tables(weights, bias)
    expect = spin_matrix(np.arange(32), 5) @ weights.T + bias
    assert np.allclose(table, expect.T, rtol=1e-13, atol=1e-14)


def test_subregion_members_and_complement():
    region = Subregion(0b1010, 4)
    assert region.members() == [1, 3]
    assert region.size == 2
    assert region.complement().members() == [0, 2]
    assert region.complement().complement() == region


def test_rng_stream_reproducible():
    a = RngStream(123, 456).generator().standard_normal(8)
    b = RngStream(123, 456).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_rng_stream_children_differ():
    base = RngStream(9)
    x = base.child(0, 1).generator().standard_normal(4)
    y = base.child(0, 2).generator().standard_normal(4)
    z = base.child(1, 1).generator().standard_normal(4)
    assert not np.array_equal(x, y)
    assert not np.array_equal(x, z)
    # child derivation is itself deterministic
    assert np.array_equal(x, RngStream(9).child(0, 1).generator().standard_normal(4))


def test_rng_stream_numpy_integer_keys():
    # numpy integers key the same streams as the equal Python ints
    def draw(stream):
        return stream.generator().standard_normal(4)

    assert np.array_equal(draw(RngStream(np.int64(3))), draw(RngStream(3)))
    assert np.array_equal(draw(RngStream(1, np.uint64(2**63 + 5))), draw(RngStream(1, 2**63 + 5)))
    assert np.array_equal(draw(RngStream(1).child(np.int64(5))), draw(RngStream(1).child(5)))
    assert np.array_equal(draw(RngStream(1).child(np.int64(-1), 2)), draw(RngStream(1).child(-1, 2)))


@pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (1, 2.0), (True, 0), (1, False), ("1", 0), (None, 0)])
def test_rng_stream_refuses_non_integer_keys(seed, stream_id):
    # a float would be truncated to an integer key: RngStream(1.5) drew as RngStream(1)
    with pytest.raises(ContractError, match="not both integers"):
        RngStream(seed, stream_id)


@pytest.mark.parametrize("index", [2.7, 2.0, True, "2", None])
def test_rng_stream_refuses_non_integer_child_index(index):
    with pytest.raises(ContractError, match=f"^child index {index!r} is not an integer$"):
        RngStream(1).child(0, index)


def test_subregion_from_numpy_members():
    region = Subregion.from_members(np.arange(4), 8)
    assert type(region.mask) is int and region.mask == 0b1111
    assert region == Subregion.from_members([0, 1, 2, 3], 8)
    # bit 63 and above stay exact, where a numpy shift would overflow
    wide = Subregion.from_members(np.array([0, 63]), 64)
    assert wide.mask == (1 << 63) | 1


def test_subregion_fields_are_python_ints():
    region = Subregion(np.int64(5), np.int64(8))
    assert type(region.mask) is int and type(region.n) is int
    assert type(region.complement().mask) is int
    assert region.complement().mask == 0b11111010


@pytest.mark.parametrize(
    "build",
    [
        lambda: Subregion.from_members([0.9, 2.2], 4),
        lambda: Subregion.from_members(np.array([1.0]), 4),
        lambda: Subregion.from_members(["1"], 4),
        lambda: Subregion.from_members([True], 4),
        lambda: Subregion.from_members([np.True_], 4),
        lambda: Subregion(1.5, 4),
        lambda: Subregion(1.0, 4),
        lambda: Subregion(True, 4),
        lambda: Subregion("1", 4),
        lambda: Subregion(1, 4.0),
        lambda: Subregion(1, True),
    ],
    ids=["float_members", "float_array", "str_member", "bool_member", "numpy_bool_member",
         "float_mask", "integral_float_mask", "bool_mask", "str_mask", "float_n", "bool_n"],
)
def test_subregion_refuses_non_integral_spins(build):
    # int() would truncate a float member or mask and read a bool as 0 or 1
    with pytest.raises(ContractError, match="integer"):
        build()


def test_config_validation():
    with pytest.raises(ContractError):
        Subregion(16, 4)
    with pytest.raises(ContractError):
        Subregion.from_members([4], 4)


def test_spin_cap_env_override(monkeypatch):
    monkeypatch.delenv("NQS_MAX_N", raising=False)
    check_n(24)
    with pytest.raises(CapacityError, match=r"^n=25 outside supported range 1\.\.24$"):
        check_n(25)
    monkeypatch.setenv("NQS_MAX_N", "26")
    check_n(25)  # env raises the cap
    check_n(26)
    monkeypatch.setenv("NQS_MAX_N", "20")
    with pytest.raises(CapacityError, match=r"^n=21 outside supported range 1\.\.20$"):
        check_n(21)  # and lowers it
    monkeypatch.setenv("NQS_MAX_N", "30")
    with pytest.raises(CapacityError, match="^NQS_MAX_N=30 is outside 1..26$"):
        check_n(4)
    monkeypatch.setenv("NQS_MAX_N", "")
    check_n(24)  # an empty value is no setting


@pytest.mark.parametrize(
    "env,message",
    [
        ("abc", "NQS_MAX_N='abc' is not an integer"),
        ("2.5", "NQS_MAX_N='2.5' is not an integer"),
        ("-3", "NQS_MAX_N=-3 is outside 1..26"),
        ("0", "NQS_MAX_N=0 is outside 1..26"),
        ("27", "NQS_MAX_N=27 is outside 1..26"),
    ],
)
def test_spin_cap_refuses_bad_env(monkeypatch, env, message):
    monkeypatch.setenv("NQS_MAX_N", env)
    # refused for any n, also one a valid cap would admit
    for n in (1, 4):
        with pytest.raises(CapacityError) as info:
            check_n(n)
        assert str(info.value) == message
