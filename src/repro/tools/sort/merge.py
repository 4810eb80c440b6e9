"""The token-passing parallel merge (paper section 5.2, Figure 4).

Merging two interleaved files A (width t_a) and B (width t_b) into one
(t = t_a + t_b)-way interleaved destination uses three sets of processes:
readers over A's constituents, readers over B's constituents, and t
writers, one per destination constituent.

A single token circulates among the reader processes.  It carries the
least unwritten key of the *other* input file, the port of the process
holding that record (the originator), and the sequence number of the next
destination record.  A reader that receives the token compares the key
inside to its least unwritten local key:

* local key <= token key — emit the local record to the writer for the
  current sequence number, pass the token (seq+1) to the next process of
  the *same* input file;
* local key > token key — build a fresh token with the local key and
  send it back to the originator;
* local file exhausted — build an EndFlag token and send it to the
  originator, whose file then drains through its own ring;
* EndFlag received at EOF — every record of both files has been written:
  the merge is DONE (the reader notifies the coordinator).

"Correctness can be proven by observing that the token is never passed
twice in a row without writing, and all records are written in
nondecreasing order."

Writers know exactly how many records they will receive (the destination
is round-robin, so constituent sizes are determined by the total), append
them to their local constituent through their local LFS, and terminate on
their own.  Readers that are idle at DONE time are dismissed with a
Shutdown message from the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import BLOCK_SIZE, SystemConfig
from repro.core.info import ConstituentInfo
from repro.efs import EFSClient
from repro.errors import SortProtocolError
from repro.machine import Port
from repro.sim import Timeout
from repro.tools.base import tree_spawn
from repro.tools.sort.records import key_of


@dataclass
class Token:
    """The circulating merge token (Figure 4's ``token`` type)."""

    start_flag: bool
    end_flag: bool
    key: int
    originator: Optional[Port]
    seq: int


@dataclass
class RecordMessage:
    """One record on its way to a destination writer."""

    seq: int
    data: bytes


@dataclass
class Shutdown:
    """Coordinator -> reader: the merge is over, exit your receive loop."""


@dataclass
class Done:
    """Reader -> coordinator: an EndFlag token met EOF; all records are out."""

    reader_slot: int
    file_label: str


@dataclass
class MergeStats:
    """Outcome of one pass-level merge."""

    records: int
    elapsed: float
    token_hops: int


class MergeReader:
    """One reader process over one constituent of one input file."""

    def __init__(
        self,
        node,
        constituent: ConstituentInfo,
        config: SystemConfig,
        file_label: str,
    ) -> None:
        self.node = node
        self.constituent = constituent
        self.config = config
        self.file_label = file_label
        self.port = node.port(f"merge.{file_label}.r{constituent.slot}")
        # wired by the coordinator before the processes start:
        self.ring_next: Optional[Port] = None
        self.other_first: Optional[Port] = None
        self.writer_ports: List[Port] = []
        self.coordinator: Optional[Port] = None
        self.token_hops = 0

    # ------------------------------------------------------------------

    def body(self):
        """The reader process (the Figure 4 loop).

        Spelled out for the hot path: each hop is one receive, one CPU
        charge (the same ``Timeout`` every hop), direct sends and, after
        an emit, the next record's read in line."""
        constituent = self.constituent
        read = EFSClient(self.node, constituent.lfs_port, name="merge-read").read
        file_number = constituent.efs_file_number
        size = constituent.size_blocks
        hint = constituent.head_addr
        position = 0
        record: Optional[bytes] = None
        if position < size:
            result = yield from read(file_number, position, hint)
            record, hint, position = result.data, result.next_addr, position + 1
        send = self.node.send
        mailbox = self.port.mailbox
        own_port = self.port
        writers = self.writer_ports
        width = len(writers)
        charge = Timeout(self.config.cpu.tool_record)
        while True:
            token = yield mailbox
            if not isinstance(token, Token):
                if isinstance(token, Shutdown):
                    return self.token_hops
                raise SortProtocolError(
                    f"reader {self.file_label}/{constituent.slot}: "
                    f"unexpected message {token!r}"
                )
            self.token_hops += 1
            yield charge
            # One token circulates: each hop rewrites the fields Figure 4
            # changes and passes the same object on.
            if token.start_flag:
                token.start_flag = False
                token.originator = own_port
                if record is None:  # empty input file: hand off immediately
                    token.end_flag = True
                else:
                    token.key = key_of(record)
                send(self.other_first, token)
                continue
            if token.end_flag:
                if record is None:
                    send(self.coordinator, Done(constituent.slot, self.file_label))
                    return self.token_hops  # DONE
                seq = token.seq
                token.seq = seq + 1
                send(self.ring_next, token)
            elif record is None:
                token.end_flag = True
                token.key = 0
                originator, token.originator = token.originator, own_port
                send(originator, token)
                continue
            else:
                key = key_of(record)
                if key <= token.key:
                    seq = token.seq
                    token.seq = seq + 1
                    send(self.ring_next, token)
                else:
                    token.key = key
                    originator, token.originator = token.originator, own_port
                    send(originator, token)
                    continue
            # Emit the record to its writer, then read the next one.
            send(writers[seq % width], RecordMessage(seq, record), BLOCK_SIZE)
            if position < size:
                result = yield from read(file_number, position, hint)
                record, hint, position = result.data, result.next_addr, position + 1
            else:
                record = None


class MergeWriter:
    """One writer process appending to one destination constituent."""

    def __init__(self, node, constituent: ConstituentInfo, expected: int,
                 width: int, config: SystemConfig) -> None:
        self.node = node
        self.constituent = constituent
        self.expected = expected
        self.width = width
        self.config = config
        self.port = node.port(f"merge.w{constituent.slot}")

    def body(self):
        """Receive records and append them in sequence order.

        Records for this writer carry seq = slot, slot+t, slot+2t, ...;
        late/early arrivals are buffered so appends happen in order.
        """
        constituent = self.constituent
        append = EFSClient(self.node, constituent.lfs_port,
                           name="merge-write").append
        file_number = constituent.efs_file_number
        mailbox = self.port.mailbox
        pending = {}
        next_seq = constituent.column  # first global block on this slot
        written = 0
        while written < self.expected:
            message = yield mailbox
            if not isinstance(message, RecordMessage):
                raise SortProtocolError(
                    f"writer {constituent.slot}: unexpected {message!r}"
                )
            pending[message.seq] = message.data
            while next_seq in pending:
                yield from append(file_number, pending.pop(next_seq))
                next_seq += self.width
                written += 1
        return written


class PairMerge:
    """Coordinates one merge of two interleaved files into a third.

    The caller supplies already-opened constituent lists; the coordinator
    wires the rings, spawns readers and writers on their LFS nodes, fires
    the start token at the first reader of file A, and waits for all
    writers plus the DONE notification.
    """

    def __init__(self, tool_node, config: SystemConfig) -> None:
        self.node = tool_node
        self.machine = tool_node.machine
        self.config = config
        self.port = tool_node.port("merge.coordinator")

    def run(self, left: List[ConstituentInfo], right: List[ConstituentInfo],
            dest: List[ConstituentInfo], total_records: int):
        """Generator: performs the merge; returns :class:`MergeStats`."""
        sim = self.machine.sim
        started = sim.now
        width = len(dest)
        if any(c.slot != c.column for c in dest):
            raise SortProtocolError(
                "merge destinations must be created with start slot 0 "
                "(writer routing assumes slot == column)"
            )
        readers_left = [
            MergeReader(self.machine.node(c.node_index), c, self.config, "A")
            for c in left
        ]
        readers_right = [
            MergeReader(self.machine.node(c.node_index), c, self.config, "B")
            for c in right
        ]
        writers = []
        for constituent in dest:
            expected = _expected_for_slot(constituent, width, total_records)
            writers.append(
                MergeWriter(
                    self.machine.node(constituent.node_index),
                    constituent,
                    expected,
                    width,
                    self.config,
                )
            )
        writer_ports = [w.port for w in writers]
        for group, other in ((readers_left, readers_right),
                             (readers_right, readers_left)):
            for index, reader in enumerate(group):
                reader.ring_next = group[(index + 1) % len(group)].port
                reader.other_first = other[0].port if other else reader.port
                reader.writer_ports = writer_ports
                reader.coordinator = self.port

        specs = [
            (w.node, w.body(), f"mwriter{w.constituent.slot}") for w in writers
        ] + [
            (r.node, r.body(), f"mreader.{r.file_label}{r.constituent.slot}")
            for r in readers_left + readers_right
        ]
        worker_tree = self.machine.sim.spawn(
            _collect(tree_spawn(self.machine, specs)), name="merge.workers"
        )
        # Fire the start token at the first process of file A.  If A has
        # no readers (zero-width input is impossible; empty-but-present
        # constituents are fine) the start goes to B.
        first = readers_left[0] if readers_left else readers_right[0]
        self.node.send(first.port, Token(True, False, 0, None, 0))

        done = yield self.port.recv()
        if not isinstance(done, Done):
            raise SortProtocolError(f"coordinator: unexpected {done!r}")
        # Dismiss every reader still waiting for a token.
        for reader in readers_left + readers_right:
            self.node.send(reader.port, Shutdown())
        results = yield worker_tree.join()
        writer_results = results[: len(writers)]  # specs list writers first
        reader_results = results[len(writers):]
        written = sum(writer_results)
        if written != total_records:
            raise SortProtocolError(
                f"merge wrote {written} records, expected {total_records}"
            )
        return MergeStats(
            records=total_records,
            elapsed=sim.now - started,
            token_hops=sum(reader_results),
        )


def _collect(generator):
    """Wrap a generator so tree_spawn can run as its own process."""
    results = yield from generator
    return results


def _expected_for_slot(constituent: ConstituentInfo, width: int,
                       total_records: int) -> int:
    """Records landing on one destination slot (round-robin arithmetic)."""
    column = constituent.column
    full, remainder = divmod(total_records, width)
    return full + (1 if column < remainder else 0)
