"""Scenario configuration: `key = value` lines, `#` comments.

Times are seconds, with an optional trailing ``m`` for minutes; data
rates are kbit/s at this boundary and converted to bit/s internally.

Example::

    synthetic   = 7, 2048, 2048, 40    # seed, width, height, objects
    tile_w      = 256
    tile_h      = 256
    levels      = 5
    data_rates  = 22, 88, 176          # kbit/s
    t_TRlimits  = 3m, 10m, 30m
    mu_t_hum    = 30
    t_hum_cap   = 5m
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .annotate import DetectorModel
from .codestream import MAX_LEVELS
from .raster import MAX_PIXELS, _LineError, text_lines


class ConfigError(ValueError):
    """A scenario configuration file is invalid."""


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int
    width: int
    height: int
    objects: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario grid description."""

    image_path: Optional[str]
    synthetic: Optional[SyntheticSpec]
    ground_truth: Optional[str]
    tile_w: int
    tile_h: int
    levels: int
    data_rates_kbps: tuple[float, ...]
    t_tr_limits_s: tuple[float, ...]
    mu_t_hum: float
    t_hum_cap: float
    baseline_human_budget: int
    seed: int
    detector: DetectorModel
    detections_path: Optional[str]
    object_size: tuple[int, int]
    tile_size_estimate: str
    iou_threshold: float = 0.1


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _number(text: str) -> float:
    return _finite(float(text))


def _seconds(text: str) -> float:
    text = text.strip()
    if text.endswith("m"):
        return _finite(float(text[:-1]) * 60.0)
    return _number(text)


# what a bad value is called, and its converter (raising ValueError)
_INT = ("integer", int)
_NUMBER = ("number", _number)
_TIME = ("time value", _seconds)
_TEXT = ("value", str)

# a check on a converted value, and the rule its message states
_ANY = (lambda v: True, "")
_AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")
_ALL_ABOVE_0 = (lambda v: len(v) > 0 and min(v) > 0, "must be positive and non-empty")
_U16 = (lambda v: 1 <= v <= 65535, "must be in 1..65535")

_KEYS = {
    "image", "synthetic", "ground_truth", "object_size",
    "tile_w", "tile_h", "levels",
    "data_rates", "t_TRlimits", "mu_t_hum", "t_hum_cap",
    "baseline_human_budget", "seed",
    "detect_p", "detect_conf", "detect_sigma", "detect_jitter",
    "detect_fp_rate", "detections",
    "tile_size_estimate", "iou_threshold",
}


def _read_lines(path) -> dict[str, tuple[str, int]]:
    """Each key's raw value and line number; comments and blank lines dropped."""
    raw: dict[str, tuple[str, int]] = {}
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(text_lines(fh, path), start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key in raw:
                    raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
                if key not in _KEYS:
                    raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
                raw[key] = (value, lineno)
    except _LineError as exc:
        raise ConfigError(str(exc)) from None
    return raw


def parse_config(path) -> ScenarioConfig:
    """Parse and validate a scenario configuration file.

    Every key goes through one reader that converts its value (or each
    item of a comma list), checks it, and names the line of a bad one.
    Numbers must be finite, and so must the two quantities the run turns
    into integers: ``t_hum_cap / mu_t_hum``, and the largest rate in
    bit/s times the largest limit. No two rates, and no two limits, may
    share the ``:g`` label that names their output files.
    """
    raw = _read_lines(path)

    def fail(key, problem):
        raise ConfigError(f"{path}: line {raw[key][1]}: {problem}")

    def get(key, kind, check=_ANY, default=None, many=False):
        if key not in raw:
            return default
        text = raw[key][0]
        name, convert = kind
        values = []
        for item in [v.strip() for v in text.split(",") if v.strip()] if many else [text]:
            try:
                values.append(convert(item))
            except ValueError:
                fail(key, f"bad {name} {item!r}")
        value = tuple(values) if many else values[0]
        if not check[0](value):
            fail(key, f"{key} {check[1]}")
        return value

    image_path = get("image", _TEXT)
    synthetic = get("synthetic", _INT, (
        lambda v: len(v) == 4 and min(v[1:3]) >= 1 and v[3] >= 0 and v[1] * v[2] <= MAX_PIXELS,
        f"must be 'seed, width, height, objects' with width, height >= 1, "
        f"width * height <= {MAX_PIXELS} and objects >= 0",
    ), many=True)
    if image_path is None and synthetic is None:
        raise ConfigError(f"{path}: one of 'image' or 'synthetic' is required")
    if image_path is not None and synthetic is not None:
        raise ConfigError(f"{path}: 'image' and 'synthetic' are mutually exclusive")
    ground_truth = get("ground_truth", _TEXT)
    if image_path is not None and ground_truth is None:
        raise ConfigError(f"{path}: 'image' requires a 'ground_truth' CSV")
    for key in ("data_rates", "t_TRlimits"):
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")

    rates = get("data_rates", _NUMBER, _ALL_ABOVE_0, many=True)
    limits = get("t_TRlimits", _TIME, _ALL_ABOVE_0, many=True)
    for key, values in (("data_rates", rates), ("t_TRlimits", limits)):
        labels = [f"{v:g}" for v in values]  # as they appear in the output file names
        if len(set(labels)) < len(labels):
            clash = next(label for label in labels if labels.count(label) > 1)
            fail(key, f"{key} repeats {clash} (values must differ in 6 significant digits)")
    if not math.isfinite(max(rates) * 1000.0 * max(limits)):
        fail("data_rates", "largest rate times largest t_TRlimit overflows")
    mu_t_hum = get("mu_t_hum", _TIME, (lambda v: v > 0, "must be > 0"), default=30.0)
    t_hum_cap = get("t_hum_cap", _TIME, _AT_LEAST_0, default=300.0)
    if not math.isfinite(t_hum_cap / mu_t_hum):
        fail("mu_t_hum", "t_hum_cap / mu_t_hum overflows")

    object_size = get("object_size", _INT, (
        lambda v: len(v) == 2 and 1 <= v[0] <= v[1], "must be 'min, max' with 1 <= min <= max",
    ), default=(24, 64), many=True)
    if synthetic is not None:
        synthetic = SyntheticSpec(*synthetic)
        if object_size[1] > min(synthetic.width, synthetic.height):
            fail("object_size" if "object_size" in raw else "synthetic",
                 f"object size {object_size[1]} exceeds the "
                 f"{synthetic.width}x{synthetic.height} scene")

    levels = get("levels", _INT, (lambda v: 1 <= v <= MAX_LEVELS, f"must be in 1..{MAX_LEVELS}"),
                 default=5)
    d = DetectorModel.default(levels)
    per_level = (lambda v: len(v) == levels, f"must have one value per level ({levels})")
    try:
        detector = DetectorModel(
            detect_p=get("detect_p", _NUMBER, per_level, default=d.detect_p, many=True),
            conf_mean=get("detect_conf", _NUMBER, per_level, default=d.conf_mean, many=True),
            conf_sigma=get("detect_sigma", _NUMBER, _AT_LEAST_0, default=d.conf_sigma),
            jitter=get("detect_jitter", _NUMBER, _AT_LEAST_0, default=d.jitter),
            fp_rate=get("detect_fp_rate", _NUMBER, _AT_LEAST_0, default=d.fp_rate),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid detector profile: {exc}") from None

    return ScenarioConfig(
        image_path=image_path,
        synthetic=synthetic,
        ground_truth=ground_truth,
        tile_w=get("tile_w", _INT, _U16, default=256),
        tile_h=get("tile_h", _INT, _U16, default=256),
        levels=levels,
        data_rates_kbps=rates,
        t_tr_limits_s=limits,
        mu_t_hum=mu_t_hum,
        t_hum_cap=t_hum_cap,
        baseline_human_budget=get("baseline_human_budget", _INT, _AT_LEAST_0,
                                  default=int(t_hum_cap / mu_t_hum)),
        seed=get("seed", _INT, default=0),
        detector=detector,
        detections_path=get("detections", _TEXT),
        object_size=object_size,
        tile_size_estimate=get("tile_size_estimate", _TEXT, (
            lambda v: v in ("max", "mean"), "must be 'max' or 'mean'"), default="max"),
        iou_threshold=get("iou_threshold", _NUMBER, (lambda v: 0 < v <= 1, "must be in (0, 1]"),
                          default=0.1),
    )
