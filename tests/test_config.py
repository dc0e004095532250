import math
import os
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecast.annotate import DetectorModel
from tilecast.channel import ChannelSpec, bandwidth_budget
from tilecast.codestream import MAX_PIXELS
from tilecast import config
from tilecast.config import ConfigError, ScenarioConfig, SyntheticSpec, parse_config


def write(tmp_path, text):
    p = tmp_path / "scenario.cfg"
    p.write_text(text)
    return p


MINIMAL = """
synthetic   = 7, 512, 512, 10
data_rates  = 22, 88, 176
t_TRlimits  = 180, 600, 1800
"""


def test_minimal_config_and_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.synthetic.seed == 7
    assert cfg.synthetic.objects == 10
    assert cfg.data_rates_kbps == (22.0, 88.0, 176.0)
    assert cfg.t_tr_limits_s == (180.0, 600.0, 1800.0)
    assert cfg.mu_t_hum == 30.0
    assert cfg.t_hum_cap == 300.0
    assert cfg.levels == 5
    assert cfg.tile_w == cfg.tile_h == 256
    assert cfg.baseline_human_budget == 10
    assert cfg.detector.detect_p == (0.3, 0.5, 0.7, 0.85, 0.95)
    assert cfg.tile_size_estimate == "max"
    assert not cfg.charge_index_bytes


def test_minute_suffix(tmp_path):
    cfg = parse_config(
        write(
            tmp_path,
            """
synthetic  = 1, 64, 64, 2
data_rates = 22
t_TRlimits = 3m, 10m, 30m
mu_t_hum   = 0.5m
t_hum_cap  = 5m
""",
        )
    )
    assert cfg.t_tr_limits_s == (180.0, 600.0, 1800.0)
    assert cfg.mu_t_hum == 30.0
    assert cfg.t_hum_cap == 300.0


OVERRIDES = """
# full scenario
synthetic  = 1, 128, 128, 4   # seed, w, h, objects
tile_w     = 64
tile_h     = 32
levels     = 3
data_rates = 10.5
t_TRlimits = 60
detect_p   = 0.2, 0.4, 0.9
detect_conf = 0.3, 0.4, 0.5
detect_sigma = 0
detect_jitter = 0
detect_fp_rate = 0
baseline_human_budget = 3
seed = 9
tile_size_estimate = mean
charge_index_bytes = true
compute_delay = 2
"""


def test_comments_and_overrides(tmp_path):
    cfg = parse_config(write(tmp_path, OVERRIDES))
    assert cfg.tile_w == 64 and cfg.tile_h == 32
    assert cfg.levels == 3
    assert cfg.detector.detect_p == (0.2, 0.4, 0.9)
    assert cfg.detector.fp_rate == 0.0
    assert cfg.baseline_human_budget == 3
    assert cfg.seed == 9
    assert cfg.tile_size_estimate == "mean"
    assert cfg.charge_index_bytes
    assert cfg.compute_delay == 2.0


def test_missing_image_source(tmp_path):
    with pytest.raises(ConfigError, match="'image' or 'synthetic'"):
        parse_config(write(tmp_path, "data_rates = 22\nt_TRlimits = 60\n"))


def test_unknown_key_names_line(tmp_path):
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
        parse_config(write(tmp_path, "synthetic = 1, 64, 64, 1\nbogus = 3\n"))


def test_malformed_values_name_line(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(write(tmp_path, "synthetic = 1, 64\ndata_rates = 22\nt_TRlimits = 60\n"))
    with pytest.raises(ConfigError, match="bad time value"):
        parse_config(
            write(tmp_path, MINIMAL + "mu_t_hum = fast\n")
        )
    with pytest.raises(ConfigError, match="levels"):
        parse_config(write(tmp_path, MINIMAL + "levels = 9\n"))


def test_missing_required_lists(tmp_path):
    with pytest.raises(ConfigError, match="data_rates"):
        parse_config(write(tmp_path, "synthetic = 1, 64, 64, 1\nt_TRlimits = 60\n"))
    with pytest.raises(ConfigError, match="t_TRlimits"):
        parse_config(write(tmp_path, "synthetic = 1, 64, 64, 1\ndata_rates = 22\n"))


def test_image_requires_ground_truth(tmp_path):
    with pytest.raises(ConfigError, match="ground_truth"):
        parse_config(
            write(tmp_path, "image = x.pgm\ndata_rates = 22\nt_TRlimits = 60\n")
        )
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(
            write(
                tmp_path,
                "image = x.pgm\nground_truth = x.csv\nsynthetic = 1, 64, 64, 1\n"
                "data_rates = 22\nt_TRlimits = 60\n",
            )
        )


def test_detector_table_length_checked(tmp_path):
    with pytest.raises(ConfigError, match="one value per level"):
        parse_config(write(tmp_path, MINIMAL + "detect_p = 0.5, 0.9\n"))
    with pytest.raises(ConfigError, match="invalid detector profile"):
        parse_config(write(tmp_path, MINIMAL + "detect_p = 0.9, 0.8, 0.7, 0.6, 0.5\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(write(tmp_path, MINIMAL + "seed = 1\nseed = 2\n"))


EXAMPLE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "scenario.example.cfg")


def test_every_field_of_the_example_and_overrides(tmp_path):
    common = dict(
        image_path=None, ground_truth=None, detections_path=None, object_size=(24, 64),
        mu_t_hum=30.0, t_hum_cap=300.0, iou_threshold=0.1,
    )
    example = ScenarioConfig(
        synthetic=SyntheticSpec(seed=7, width=2048, height=2048, objects=40),
        tile_w=256, tile_h=256, levels=5,
        data_rates_kbps=(22.0, 88.0, 176.0), t_tr_limits_s=(180.0, 600.0, 1800.0),
        baseline_human_budget=10, seed=1,
        detector=DetectorModel(
            detect_p=(0.3, 0.5, 0.7, 0.85, 0.95), conf_mean=(0.4, 0.5, 0.6, 0.72, 0.85),
            conf_sigma=0.08, jitter=0.5, fp_rate=0.05,
        ),
        tile_size_estimate="max", charge_index_bytes=False, compute_delay=0.0, **common,
    )
    overrides = ScenarioConfig(
        synthetic=SyntheticSpec(seed=1, width=128, height=128, objects=4),
        tile_w=64, tile_h=32, levels=3,
        data_rates_kbps=(10.5,), t_tr_limits_s=(60.0,),
        baseline_human_budget=3, seed=9,
        detector=DetectorModel(
            detect_p=(0.2, 0.4, 0.9), conf_mean=(0.3, 0.4, 0.5),
            conf_sigma=0.0, jitter=0.0, fp_rate=0.0,
        ),
        tile_size_estimate="mean", charge_index_bytes=True, compute_delay=2.0, **common,
    )
    for cfg, expected in (
        (parse_config(EXAMPLE_CFG), example),
        (parse_config(write(tmp_path, OVERRIDES)), overrides),
    ):
        assert cfg == expected
        assert repr(cfg) == repr(expected)  # float fields stay floats


TIME_KEYS = ["data_rates", "t_TRlimits", "mu_t_hum", "t_hum_cap", "compute_delay"]
NUMBER_KEYS = ["detect_p", "detect_conf", "detect_sigma", "detect_jitter",
               "detect_fp_rate", "iou_threshold"]
INT_KEYS = ["synthetic", "object_size", "tile_w", "tile_h", "levels",
            "baseline_human_budget", "seed"]


def with_line(key, value):
    """MINIMAL with ``key = value`` as its last line, and that line's number."""
    lines = [l for l in MINIMAL.splitlines() if not l.startswith(key + " ")]
    lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n", len(lines)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_numbers_name_their_line(tmp_path, bad):
    lists = {
        "synthetic": ["1", "64", bad, "2"],
        "object_size": ["12", bad],
        "detect_p": ["0.5", "0.6", bad, "0.8", "0.9"],
        "detect_conf": ["0.5", "0.6", bad, "0.8", "0.9"],
    }
    for key in TIME_KEYS + NUMBER_KEYS + INT_KEYS:
        variants = [", ".join(lists.get(key, [bad]))]
        if key in TIME_KEYS:
            variants.append(f"{bad}m")
        for value in variants:
            text, lineno = with_line(key, value)
            with pytest.raises(ConfigError, match=f"line {lineno}: bad "):
                parse_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "lines, key",
    [
        (["t_hum_cap = 1e300", "mu_t_hum = 1e-300"], "mu_t_hum"),
        (["data_rates = 1e300", "t_TRlimits = 1e300"], "data_rates"),
        (["synthetic = 1, 8193, 8192, 1"], "synthetic"),
        (["synthetic = 1, 64, 128, 1", "object_size = 10, 100"], "object_size"),
        (["synthetic = 1, 32, 32, 1"], "synthetic"),  # the default object_size max is 64
    ],
)
def test_values_the_run_cannot_use_name_their_line(tmp_path, lines, key):
    base = {"synthetic": "1, 512, 512, 1", "data_rates": "22", "t_TRlimits": "60"}
    base.update(line.split(" = ") for line in lines)
    text = "".join(f"{k} = {v}\n" for k, v in base.items())
    lineno = list(base).index(key) + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: "):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "key, values, clash",
    [
        ("data_rates", "16, 16.0000001", "16"),
        ("data_rates", "22, 88, 22", "22"),
        ("t_TRlimits", "30, 30", "30"),
        ("t_TRlimits", "1m, 60", "60"),
    ],
)
def test_rates_or_limits_sharing_a_file_label_are_refused(tmp_path, key, values, clash):
    base = {"synthetic": "1, 512, 512, 1", "data_rates": "16, 16.0001", "t_TRlimits": "30, 31"}
    text = "".join(f"{k} = {v}\n" for k, v in base.items())
    assert parse_config(write(tmp_path, text)).data_rates_kbps == (16.0, 16.0001)
    base[key] = values
    text = "".join(f"{k} = {v}\n" for k, v in base.items())
    lineno = list(base).index(key) + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: {key} repeats {clash} "):
        parse_config(write(tmp_path, text))


def test_pixel_ceiling_and_object_size_bounds_are_inclusive(tmp_path):
    side = math.isqrt(MAX_PIXELS)
    cfg = parse_config(write(tmp_path, MINIMAL.replace("512, 512", f"{side}, {side}")))
    assert cfg.synthetic.width * cfg.synthetic.height == MAX_PIXELS
    cfg = parse_config(write(tmp_path, MINIMAL.replace("512, 512", "64, 80")))
    assert cfg.object_size == (24, 64)


def test_non_utf8_file_is_a_config_error(tmp_path):
    p = tmp_path / "latin1.cfg"
    p.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        parse_config(p)


def test_a_non_utf8_config_names_its_line(tmp_path):
    p = tmp_path / "latin1.cfg"
    p.write_bytes(MINIMAL.encode() + b"# caf\xe9\nbogus = 1\n")
    line = MINIMAL.count("\n") + 1
    with pytest.raises(ConfigError, match=re.escape(f"{p}: line {line}: not UTF-8 text")):
        parse_config(p)


def test_a_config_whose_last_comment_never_ends_is_refused_at_its_line(tmp_path):
    # a sparse 64 MB file: a good config, then a comment that runs to its end
    p = tmp_path / "long.cfg"
    p.write_bytes(MINIMAL.encode() + b"# ")
    with open(p, "r+b") as fh:
        fh.truncate(64 << 20)
    line = MINIMAL.count("\n") + 1
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=re.escape(
                f"{p}: line {line}: longer than {1 << 20} characters")):
            parse_config(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_a_config_with_bare_carriage_returns_parses(tmp_path):
    assert parse_config(write(tmp_path, MINIMAL.replace("\n", "\r"))) == parse_config(
        write(tmp_path, MINIMAL))
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
        parse_config(write(tmp_path, "tile_w = 64\rbogus = 1\r\n"))


ATOMS = ["0", "1", "3", "5", "-1", "0.5", "22", "2048", "3m", "0.5m", "1e-300", "1e300",
         "nan", "inf", "-inf", "1e400", "true", "mean", "x", ""]
atom = st.one_of(st.sampled_from(ATOMS), st.floats().map(repr), st.integers().map(str))
config_value = st.one_of(atom, st.lists(atom, min_size=2, max_size=5).map(", ".join))
# a valid config with up to four keys set (or replaced) at random
config_text = st.dictionaries(
    st.sampled_from(sorted(config._KEYS) + ["bogus"]), config_value, max_size=4
).map(
    lambda chosen: "".join(
        f"{k} = {v}\n"
        for k, v in {"synthetic": "1, 64, 64, 2", "data_rates": "22, 88",
                     "t_TRlimits": "60, 3m", **chosen}.items()
    )
)


@given(st.one_of(st.text(), st.binary(), config_text))
@settings(max_examples=400, deadline=None)
def test_any_file_parses_or_raises_config_error(tmp_path_factory, content):
    p = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    if isinstance(content, str):
        content = content.encode("utf-8", "surrogatepass")
    p.write_bytes(content)
    try:
        cfg = parse_config(p)
    except ConfigError:
        return
    # what the run turns into integers stays finite
    int(cfg.t_hum_cap / cfg.mu_t_hum)
    for rate in cfg.data_rates_kbps:
        for limit in cfg.t_tr_limits_s:
            bandwidth_budget(ChannelSpec(data_rate=rate * 1000.0, t_tr_limit=limit))
    assert cfg.synthetic is None or cfg.synthetic.width * cfg.synthetic.height <= MAX_PIXELS
