"""The host work of one block operation, counted, not timed.

Wall-clock time on a shared host moves by tens of percent from run to
run; the number of Python frames ``repro`` enters per operation does
not.  ``sys.setprofile`` reports one ``call`` event per frame entered —
a function call, or a generator started or resumed — so the count below
is exact and repeats on any host.  It pins three hot paths: the naive
view at p = 8 (Bridge Server → RPC → EFS → device, every knob off), the
tool view at p = 32 (a worker on an LFS node → RPC → its local EFS →
device: the sort's appends and its merge readers' hinted reads), and
one device op on its own (``BlockStoreABC.read`` / ``write`` on a
``ram`` driver: the floor under every block of the other two).  A
frame that comes back, a helper generator, an extra layer of delegation,
shows up here as a count above the budget.

The budgets are the counts this tree reaches plus 1 %; lower them when a
change cuts the path, never raise them to make room.
"""

import gc
import os
import sys

import repro
from repro.harness import paper_system
from repro.sim import Simulator
from repro.storage import make_driver

#: Frames entered per naive op (steady state, p = 8, Python 3.11), plus
#: 1 % (181.04 and 94.04 before reply cells and frame-free EFS hits,
#: 139.03 and 70.03 before the append and hinted read spelled out).
WRITE_BUDGET = 128.03 * 1.01
READ_BUDGET = 68.03 * 1.01
#: Frames entered per tool-view op (steady state, p = 32, Python 3.11),
#: plus 1 % (107.03 and 31.13 before the append and hinted read were
#: spelled out and ``EFSClient`` returned the RPC's own generator).
APPEND_BUDGET = 95.03 * 1.01
HINTED_READ_BUDGET = 28.13 * 1.01
#: Frames entered per device op on one ``ram`` driver (steady state,
#: Python 3.11), plus 1 %.
DEVICE_READ_BUDGET = 17.03 * 1.01
DEVICE_WRITE_BUDGET = 17.03 * 1.01

_PACKAGE = os.path.dirname(repro.__file__)
#: 128 blocks per LFS, twice its EFS cache: the counted reads are the
#: cold ones (a device read per track, a decode per block), as in the
#: ledger's ``naive_stream``.
_BLOCKS, _WARM, _COUNTED = 1024, 64, 256
#: The EFS file number the tool-view count appends to and reads back.
_TOOL_FILE = 77


def _frames_per_op(run, body):
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
        run(body())
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
    write = _frames_per_op(system.run, writes(chunks[-_COUNTED:]))
    system.run(client.open("budget"))
    system.run(reads(_WARM)())
    read = _frames_per_op(system.run, reads(_COUNTED))
    return write, read


def _tool_view_counts():
    """One LFS of a p = 32 system, driven as a sort worker drives it: an
    ``EFSClient`` on the LFS's own node, appends, then reads that thread
    the hint as ``MergeReader`` does."""
    system = paper_system(32, seed=7)
    client = system.efs_client(5)
    append, read = client.append, client.read
    chunks = [bytes([index % 251]) * 960 for index in range(_BLOCKS)]
    state = {"position": 0, "hint": None}

    def appends(batch):
        def body():
            for chunk in batch:
                yield from append(_TOOL_FILE, chunk)
        return body

    def reads(count):
        def body():
            for _ in range(count):
                result = yield from read(_TOOL_FILE, state["position"],
                                         state["hint"])
                state["position"] += 1
                state["hint"] = result.next_addr
        return body

    system.run(client.create(_TOOL_FILE))
    system.run(appends(chunks[:-_COUNTED])())
    write = _frames_per_op(system.run, appends(chunks[-_COUNTED:]))
    state["hint"] = system.run(client.info(_TOOL_FILE)).head_addr
    system.run(reads(_WARM)())
    read_frames = _frames_per_op(system.run, reads(_COUNTED))
    return write, read_frames


def _device_counts():
    """Direct ``read`` / ``write`` calls on one ``ram`` driver, over
    blocks already written once."""
    sim = Simulator(seed=7)
    disk = make_driver("ram", sim, name="budget-disk")
    chunks = [bytes([index % 251]) * 1024 for index in range(_COUNTED)]

    def writes():
        for block, chunk in enumerate(chunks):
            yield from disk.write(block, chunk)

    def reads():
        for block in range(_COUNTED):
            yield from disk.read(block)

    sim.run_process(writes())
    sim.run_process(reads())
    write = _frames_per_op(sim.run_process, writes)
    read = _frames_per_op(sim.run_process, reads)
    return write, read


def test_naive_block_ops_stay_within_their_frame_budget():
    write, read = _naive_counts()
    assert write <= WRITE_BUDGET, f"{write:.2f} frames per naive write"
    assert read <= READ_BUDGET, f"{read:.2f} frames per naive read"


def test_the_count_is_exact():
    assert _naive_counts() == _naive_counts()


def test_tool_view_block_ops_stay_within_their_frame_budget():
    append, read = _tool_view_counts()
    assert append <= APPEND_BUDGET, f"{append:.2f} frames per EFS append"
    assert read <= HINTED_READ_BUDGET, f"{read:.2f} frames per hinted read"


def test_the_tool_view_count_is_exact():
    assert _tool_view_counts() == _tool_view_counts()


def test_device_ops_stay_within_their_frame_budget():
    write, read = _device_counts()
    assert write <= DEVICE_WRITE_BUDGET, f"{write:.2f} frames per device write"
    assert read <= DEVICE_READ_BUDGET, f"{read:.2f} frames per device read"


def test_the_device_count_is_exact():
    assert _device_counts() == _device_counts()
