"""Lossless constant-rate transmission model.

Converts byte counts into transfer durations and a transmission-time
limit into a bandwidth budget. Rates are plain bits per second; kbit/s
values are converted at the configuration boundary, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LABEL_LR_ALL = "LR-all"
LABEL_HR_SELECTED = "HR-selected"
LABEL_HR_ALL = "HR-all"
LABEL_INDICES = "indices"

INDEX_BYTES = 4  # size of one tile index in the transfer record


@dataclass(frozen=True)
class ChannelSpec:
    """Link parameters: data rate (bit/s) and transmission time limit (s)."""

    data_rate: float
    t_tr_limit: float

    def __post_init__(self):
        for name in ("data_rate", "t_tr_limit"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be > 0")
        if not math.isfinite(self.data_rate * self.t_tr_limit):
            raise ValueError("data_rate * t_tr_limit overflows a float")


@dataclass(frozen=True)
class TransferRecord:
    """One completed transfer: payload size, duration, and purpose."""

    nbytes: int
    seconds: float
    label: str


def transmit(nbytes: int, ch: ChannelSpec, label: str) -> TransferRecord:
    """Send bytes through the channel; duration = bytes * 8 / rate.

    Index-list transfers take no time: a tile index is a few bytes next
    to the codestream data it fetches.
    """
    if nbytes < 0:
        raise ValueError("cannot transmit a negative byte count")
    seconds = 0.0 if label == LABEL_INDICES else nbytes * 8 / ch.data_rate
    return TransferRecord(nbytes=nbytes, seconds=seconds, label=label)


def bandwidth_budget(ch: ChannelSpec) -> int:
    """Whole bytes transmittable within the time limit."""
    return int(ch.data_rate * ch.t_tr_limit / 8)
