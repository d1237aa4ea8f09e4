"""Every `tm` command on small generated workloads, checked against the
outputs that `perfbench/gen.py` derives without calling tmkit."""

import contextlib
import gc
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tmkit import cli, corpus

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
        if metric == "to_class_s":  # the check compares only the classes
            assert out.getvalue() == wl.class_json, wl.source


def _cyclic_garbage(argv) -> int:
    """How many objects the collector finds unreachable after `argv` ran."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("name, small, large", [("chain", 10, 40),
                                                ("fanout", 2, 4)])
def test_no_command_leaves_cyclic_garbage_that_grows_with_the_model(
        tmp_path, name, small, large):
    # `tm` runs with the collector off, so a model that only a cycle
    # keeps alive would stay in memory until the process ends
    found = {}
    for size in (small, large):
        work = tmp_path / str(size)
        work.mkdir()
        found[size] = {metric: _cyclic_garbage(argv) for metric, argv
                       in commands(gen.build(name, 1, size), work)}
    assert found[small] == found[large]


def test_to_class_leaves_no_cyclic_garbage():
    # the class JSON is written without `json`'s pure-Python encoder,
    # whose functions form cycles
    assert _cyclic_garbage(["to-class", corpus.fixture_path("bank")]) == 0
