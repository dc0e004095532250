import os
import re

from tilecast.config import parse_config

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
EXAMPLE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "scenario.example.cfg")


def test_library_use_example_runs():
    # a public name the example uses that is removed or renamed fails here
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    (block,) = re.findall(r"## Library use\n+```python\n(.*?)```", text, re.S)
    exec(compile(block, "README.md (Library use)", "exec"), {})


def test_the_config_block_is_the_example_scenario(tmp_path):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    (block,) = re.findall(r"## Scenario configuration\n.*?```ini\n(.*?)```", text, re.S)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block, encoding="utf-8")
    assert parse_config(cfg) == parse_config(EXAMPLE_CFG)
