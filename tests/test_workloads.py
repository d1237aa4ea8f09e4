"""Every `tm` command on small generated workloads, checked against the
outputs that `perfbench/gen.py` derives without calling tmkit."""

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from tmkit import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402
from common import CHECKS  # noqa: E402
from run import commands  # noqa: E402

#: workload -> the range of generator sizes drawn
SIZES = {"chain": (1, 40), "loop": (1, 30), "fanout": (1, 4)}


@st.composite
def workloads(draw):
    name = draw(st.sampled_from(sorted(SIZES)))
    return gen.build(name, draw(st.integers(0, 2**32)),
                     draw(st.integers(*SIZES[name])))


@settings(max_examples=100, deadline=None)
@given(wl=workloads())
def test_every_command_matches_the_generators_reference(tmp_path_factory,
                                                        wl):
    work = tmp_path_factory.mktemp("workload")
    for metric, argv in commands(wl, work):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert CHECKS[metric](wl, code, out.getvalue()), (metric, wl.source)
