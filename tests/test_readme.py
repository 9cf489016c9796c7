"""README's library examples run as written and print what their comments
say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_library_examples_run_and_print_what_they_state():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert len(blocks) == 3
    printed, namespace = [], {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, namespace)
        printed.append(out.getvalue().splitlines())
    assert len(printed[0]) == 3
    assert printed[1][1] == "3"   # distinct supports (here 3 totals)
    assert printed[2] == ["[0.02 0.01 0.6 ]", "[0 1]", "[0.03 0.03 1.   1.  ]"]
    max_cdf = namespace["build_max_cdf"](namespace["hand"])
    assert max_cdf.grid.tolist() == [0.01, 0.02, 0.6, 1.0]
