"""The README's library tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_block() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", tour, re.S)
    assert match, "the library tour has no python block"
    return match.group(1)


def test_library_tour_prints_the_commented_values():
    code = _tour_block()
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):  # the value rounded to the digits shown
            shown = want[:-3]
            digits = len(shown.split(".", 1)[1])
            assert abs(float(got) - float(shown)) <= 0.5 * 10.0 ** -digits, \
                (got, want)
        else:
            assert got == want, (got, want)
