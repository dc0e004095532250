import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_use_example_runs():
    # a public name the example uses that is removed or renamed fails here
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    (block,) = re.findall(r"## Library use\n+```python\n(.*?)```", text, re.S)
    exec(compile(block, "README.md (Library use)", "exec"), {})
