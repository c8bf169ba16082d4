"""Generated OP_LOOP kernels (node/loopkernel.py).

Bit identity with the generator front end is pinned by
test_opstream_differential.py (paper kernels and the lockstep fuzz);
these tests cover the generator itself: the shape cache, the rendered
source and its hot-path rules, and tracebacks into generated code.
"""

import traceback

import pytest

from repro.apps.opstream import (
    OP_LOOP,
    OP_R_RUN,
    OP_W_RUN,
    OP_WORK,
    SLOT_R,
    SLOT_W,
    SLOT_WORK,
    compile_stream,
)
from repro.cache.states import STATE_ENV
from repro.experiments.common import make_app
from repro.node.loopkernel import body_shape, kernel_source, loop_kernel
from repro.system.machine import Machine
from repro.system.presets import base_config
from repro.verify.rules.hotpath import check_generated

from test_opstream_differential import SMALL_SCALE


def loop_shapes(app_name):
    """Every OP_LOOP body shape in one paper kernel's compiled streams."""
    machine = Machine(base_config(4), sanitize=False)
    app = make_app(app_name, "quick", SMALL_SCALE[app_name])
    app.setup(machine)
    shapes = set()
    for proc in range(machine.num_procs):
        for chunk in compile_stream(app, proc, machine):
            ip = 0
            while ip < len(chunk):
                op = chunk[ip]
                if op == OP_LOOP:
                    n3 = chunk[ip + 2] * 3
                    shapes.add(body_shape(chunk[ip + 3:ip + 3 + n3]))
                    ip += 3 + n3
                elif op in (OP_R_RUN, OP_W_RUN):
                    ip += 4
                else:
                    ip += 3 if op == OP_WORK else 2
    return shapes


def options(trace_values=False, monkeypatch=None, state="coded"):
    if monkeypatch is not None:
        monkeypatch.setenv(STATE_ENV, state)
    machine = Machine(base_config(4, trace_values=trace_values),
                      sanitize=False)
    return next(machine.stacks()).processor.kernel_options()


@pytest.mark.parametrize("app_name", sorted(SMALL_SCALE))
def test_paper_kernel_shapes_pass_hot_path_rules(app_name, monkeypatch):
    shapes = loop_shapes(app_name)
    assert shapes, f"{app_name} compiles to no OP_LOOP"
    variants = [options(False), options(True),
                options(False, monkeypatch, "obj")]
    for shape in shapes:
        for opts in variants:
            source = kernel_source(shape, opts)
            assert check_generated("node/loopkernel.py", source) == [], source


def test_hot_path_rules_see_generated_source():
    source = kernel_source(((SLOT_R, 8),), options())
    bad = source.replace("nwb += 1", "nwb += len([b])", 1)
    rules = {f.rule for f in check_generated("node/loopkernel.py", bad)}
    assert rules == {"P-ALLOC"}


def test_one_kernel_per_shape():
    opts = options()
    a = [SLOT_R, 4096, 8, SLOT_W, 8192, 8, SLOT_WORK, 3, 0]
    b = [SLOT_R, 65536, 8, SLOT_W, 128, 8, SLOT_WORK, 3, 0]
    assert body_shape(a) == ((SLOT_R, 8), (SLOT_W, 8), (SLOT_WORK, 3))
    assert loop_kernel(a, opts) is loop_kernel(b, opts)
    other_stride = [SLOT_R, 4096, 16, SLOT_W, 8192, 8, SLOT_WORK, 3, 0]
    other_work = [SLOT_R, 4096, 8, SLOT_W, 8192, 8, SLOT_WORK, 4, 0]
    assert loop_kernel(other_stride, opts) is not loop_kernel(a, opts)
    assert loop_kernel(other_work, opts) is not loop_kernel(a, opts)
    assert loop_kernel(a, options(True)) is not loop_kernel(a, opts)


def test_constants_are_folded_and_tracing_is_checked_per_element():
    shape = ((SLOT_R, 384), (SLOT_WORK, 7), (SLOT_W, -8))
    fast = kernel_source(shape, options())
    assert "a0 += 384" in fast and "a2 += -8" in fast
    assert "body[" not in fast.split("while iters:")[1].split("\n    body")[0]
    assert "time < limit" in fast
    traced = kernel_source(shape, options(True))
    assert "time < limit" not in traced
    assert "trace.append" in traced


def test_traceback_shows_generated_source():
    kernel = loop_kernel([SLOT_R, 0, 8], options())
    with pytest.raises(AttributeError) as info:
        # wb=None: the kernel's first write-buffer access raises
        kernel([SLOT_R, 0, 8], 1, 0, 0, 100, *[None] * 13)
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.filename.startswith("<loop kernel")
    assert frame.line == "draining = wb._draining"
