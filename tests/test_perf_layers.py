"""``perf/layers.py`` runs every layer on its small inputs and gets the pinned outputs."""

import importlib.util
import os
import sys

import pytest

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perf", "layers.py")


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perf_layers", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_runs_once_on_small_inputs_and_matches_its_digest(layers):
    timed = layers.measure(small=True, repeats=1)
    assert set(timed) == {"forward_53", "band_sizes", "encode_bands", "decode_bands",
                          "inverse_53", "assemble"}
    for name, layer in timed.items():
        assert layer["digest"] == layers.DIGESTS["small"][name]
        assert len(layer["times_s"]) == 1 and layer["times_s"][0] > 0
    summary = layers.summarize(timed)
    assert all(s["rate"] > 0 for s in summary.values())


def test_a_layer_that_returns_something_else_is_refused(layers, monkeypatch):
    from tilecast import wavelet

    monkeypatch.setattr(wavelet, "inverse_53", lambda pyramid: pyramid.ll)
    with pytest.raises(SystemExit, match="inverse_53: output digest"):
        layers.measure(small=True, repeats=1)


def test_a_failing_child_shows_its_stderr_and_exits_nonzero(layers, capsys):
    line = "inverse_53: output digest 00 != pinned 11"
    with pytest.raises(SystemExit) as exited:
        layers._run([sys.executable, "-c", f"import sys; sys.exit({line!r})"])
    assert exited.value.code not in (None, 0)
    assert line in capsys.readouterr().err
    assert layers._run([sys.executable, "-c", "print('ok')"]) == "ok\n"
