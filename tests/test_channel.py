import pytest

from tilecast.channel import (
    LABEL_HR_ALL,
    LABEL_INDICES,
    ChannelSpec,
    bandwidth_budget,
    transmit,
)


def test_transfer_arithmetic():
    ch = ChannelSpec(data_rate=16_000, t_tr_limit=1000)
    rec = transmit(1_980_000, ch, LABEL_HR_ALL)
    assert rec.seconds == 990.0
    assert rec.nbytes == 1_980_000
    assert transmit(0, ch, LABEL_HR_ALL).seconds == 0.0


def test_index_transfers_are_free_by_default():
    ch = ChannelSpec(data_rate=16_000, t_tr_limit=1000)
    assert transmit(4_000_000, ch, LABEL_INDICES).seconds == 0.0


def test_budget_values():
    assert bandwidth_budget(ChannelSpec(22_000, 180)) == 495_000
    assert bandwidth_budget(ChannelSpec(16_000, 1000)) == 2_000_000
    assert bandwidth_budget(ChannelSpec(8, 1e-9)) == 0


def test_budget_floor_contract():
    import random

    r = random.Random(1)
    for _ in range(500):
        rate = r.uniform(1, 1e6)
        t = r.uniform(1e-3, 1e5)
        bw = bandwidth_budget(ChannelSpec(rate, t))
        assert bw * 8 <= rate * t < bw * 8 + 8


def test_transmit_linearity():
    import random

    r = random.Random(2)
    for _ in range(200):
        rate = r.uniform(1, 1e6)
        a = r.randrange(0, 10**7)
        b = r.randrange(0, 10**7)
        ch = ChannelSpec(rate, 1)
        assert transmit(a + b, ch, "x").seconds == pytest.approx(
            transmit(a, ch, "x").seconds + transmit(b, ch, "x").seconds, rel=1e-12
        )


def test_validation():
    with pytest.raises(ValueError):
        ChannelSpec(0, 1)
    with pytest.raises(ValueError):
        ChannelSpec(1, 0)
    with pytest.raises(ValueError):
        transmit(-1, ChannelSpec(1, 1), "x")


@pytest.mark.parametrize("rate, limit, field", [
    (float("nan"), 10, "data_rate"),
    (float("inf"), 10, "data_rate"),
    (-float("inf"), 10, "data_rate"),
    (16_000, float("nan"), "t_tr_limit"),
    (16_000, float("inf"), "t_tr_limit"),
])
def test_non_finite_link_parameters_are_refused(rate, limit, field):
    # these used to reach bandwidth_budget and fail there in int()
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ChannelSpec(rate, limit)


def test_overflowing_budget_is_refused():
    with pytest.raises(ValueError, match="overflows"):
        ChannelSpec(1e300, 1e300)
    assert bandwidth_budget(ChannelSpec(1e300, 1e8)) > 10**307
