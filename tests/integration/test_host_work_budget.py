"""The host work of one naive block operation, counted, not timed.

Wall-clock time on a shared host moves by tens of percent from run to
run; the number of Python frames ``repro`` enters per operation does
not.  ``sys.setprofile`` reports one ``call`` event per frame entered —
a function call, or a generator started or resumed — so the count below
is exact and repeats on any host.  It pins the naive-view hot path at
p = 8 (Bridge Server → RPC → EFS → device, every knob off): a frame that
comes back, a helper generator, an extra layer of delegation, shows up
here as a count above the budget.

The budgets are the counts this tree reaches plus 1 %; lower them when a
change cuts the path, never raise them to make room.
"""

import gc
import os
import sys

import repro
from repro.harness import paper_system

#: Frames entered per naive op (steady state, p = 8, Python 3.11), plus
#: 1 % (181.04 and 94.04 before reply cells and frame-free EFS hits).
WRITE_BUDGET = 139.03 * 1.01
READ_BUDGET = 70.03 * 1.01

_PACKAGE = os.path.dirname(repro.__file__)
#: 128 blocks per LFS, twice its EFS cache: the counted reads are the
#: cold ones (a device read per track, a decode per block), as in the
#: ledger's ``naive_stream``.
_BLOCKS, _WARM, _COUNTED = 1024, 64, 256


def _frames_per_op(system, body):
    """Frames under ``src/repro`` entered per operation of ``body``."""
    entered = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            entered[0] += 1

    # A collection inside the window would close some earlier system's
    # parked generators, and closing one enters its frame.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        system.run(body())
    finally:
        sys.setprofile(None)
        gc.enable()
    return entered[0] / _COUNTED


def _naive_counts():
    system = paper_system(8, seed=7)
    client = system.naive_client()
    chunks = [bytes([index % 251]) * 960 for index in range(_BLOCKS)]

    def writes(batch):
        def body():
            for chunk in batch:
                yield from client.seq_write("budget", chunk)
        return body

    def reads(count):
        def body():
            for _ in range(count):
                yield from client.seq_read("budget")
        return body

    system.run(client.create("budget"))
    system.run(writes(chunks[:-_COUNTED])())
    write = _frames_per_op(system, writes(chunks[-_COUNTED:]))
    system.run(client.open("budget"))
    system.run(reads(_WARM)())
    read = _frames_per_op(system, reads(_COUNTED))
    return write, read


def test_naive_block_ops_stay_within_their_frame_budget():
    write, read = _naive_counts()
    assert write <= WRITE_BUDGET, f"{write:.2f} frames per naive write"
    assert read <= READ_BUDGET, f"{read:.2f} frames per naive read"


def test_the_count_is_exact():
    assert _naive_counts() == _naive_counts()
