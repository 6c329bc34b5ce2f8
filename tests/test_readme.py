"""The README's library quick tour runs as a doctest, so its printed
outputs cannot drift from what the library returns."""

import doctest
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_as_a_doctest():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "quick tour", str(README), 0)
    report = io.StringIO()
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.write)
    assert runner.tries >= 5
    assert runner.failures == 0, report.getvalue()
