"""Edge-case tests: process and mailbox reprs."""

from repro.sim import Mailbox, Simulator, Timeout


def test_process_repr_states():
    sim = Simulator()

    def body():
        yield Timeout(0.1)

    process = sim.spawn(body(), name="repr-proc")
    assert "running" in repr(process)
    sim.run()
    assert "done" in repr(process)


def test_mailbox_repr():
    sim = Simulator()
    box = Mailbox(sim, "inbox")
    box.deliver("x")
    assert "inbox" in repr(box)
    assert "queued=1" in repr(box)
