"""The ledger's seven workloads.

Each workload builds a fresh system per repetition (``build`` +
``preload`` are the set-up the ledger times as ``setup_s``), drives it
through public clients only (``drive`` is what ``host_s`` times) and
then checks its own output (``verify``).  Inputs come from the seed: the
same seed gives the same keys, offsets, names and simulator streams.

Sizes are fixed constants; ``scale`` shrinks them for the ledger's own
tests and for the analyzer pass (``trace_scale``), never for a measured
run, because the sizes define every simulated-clock value.
"""

import random
from contextlib import contextmanager
from types import SimpleNamespace

import _api

BLOCK = 960  # data bytes per block: what a read returns for a full write


def _sized(full, scale, floor=8):
    return max(floor, int(full * scale))


def _blocks(rng, count):
    return [rng.randbytes(BLOCK) for _ in range(count)]


def nearest_rank(sorted_values, q):
    """Exact nearest-rank percentile of an ascending list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = -(-q * len(sorted_values) // 100)  # ceil without floats
    return sorted_values[max(0, int(rank) - 1)]


class RawSLORecorder(_api.SLORecorder):
    """An SLO recorder that also keeps every ``ok`` latency, so the
    ledger takes exact percentiles instead of bucket interpolation."""

    def __init__(self):
        super().__init__()
        self.raw = {}

    def record_outcome(self, cls, outcome, latency):
        super().record_outcome(cls, outcome, latency)
        if outcome == "ok":
            self.raw.setdefault(cls, []).append(latency)


class Workload:
    """One named workload.  Subclasses fill in the four steps."""

    name = ""
    why = ""
    #: Scale of the analyzer pass.  ``attribute()`` rebuilds the span
    #: index per root, so cost grows with roots x spans; these keep the
    #: pass at or under ~1 000 client operations.
    trace_scale = 0.05
    #: Root-span prefixes the analyzer attributes (the drive's client
    #: calls; preload traffic is left out).
    trace_roots = ("call.",)

    def new_state(self, seed, scale, obs):
        return SimpleNamespace(
            seed=seed, scale=scale, obs=obs, rng=random.Random(seed),
            systems=[], sims=[], machines=[], servers=[],
            attempted=0, failed=0, notes=[], phases={},
        )

    def build(self, st):
        raise NotImplementedError

    def preload(self, st):
        """Install files the drive expects to exist (part of set-up)."""

    def drive(self, st, spans):
        raise NotImplementedError

    def verify(self, st):
        raise NotImplementedError

    def sim_metrics(self, st):
        """Workload-specific metrics on the simulated clock or from
        counters: a pure function of the seed.  Called after ``verify``,
        whose oracle some of them report."""
        return {}

    def host_metrics(self, ops, host):
        """Workload-specific metrics on the host clock, from the
        ledger's own spans: ``host`` maps a span's name to its seconds
        and ``ops`` a phase's name to its operation count."""
        return {}

    def model_seconds_per_op(self, st):
        """The analytic model's latency of one traced operation, where
        the repo has such a model."""
        return None

    # -- helpers -------------------------------------------------------

    @staticmethod
    def paced(spans, items, every):
        """``items`` one by one, with a progress mark every ``every``:
        what cuts a closed loop into slices about a millisecond long."""
        for lo in range(0, len(items), every):
            spans.mark()
            yield from items[lo:lo + every]

    @staticmethod
    def marked(spans, body, every=1):
        """Run a process body the ledger does not own (a tool, the
        traffic source), marking progress every ``every`` yields."""
        value, count = None, 0
        while True:
            try:
                request = body.send(value)
            except StopIteration as stop:
                return stop.value
            count += 1
            if count % every == 0:
                spans.mark()
            value = yield request

    @contextmanager
    def phase(self, st, spans, name, sim, ops=None):
        """One timed phase of the drive: a ledger span on the host
        clock plus the simulated seconds (and operations) it covered."""
        start = sim.now
        with spans.span(name):
            yield
        st.phases[name] = (sim.now - start, ops)

    def check(self, st, ok, note):
        """Count one verification; a failure is a failed operation."""
        st.attempted += 1
        if not ok:
            st.failed += 1
            st.notes.append(note)

    @staticmethod
    def per_op(st, names):
        """Simulated milliseconds per operation of each named phase."""
        return {f"phase.{name}.sim_ms_per_op": sim_s * 1e3 / ops
                for name, (sim_s, ops) in st.phases.items() if name in names}

    @staticmethod
    def host_per_op(ops, host, names):
        """Host microseconds per operation of each named phase."""
        return {f"phase.{name}.host_us_per_op": host[name] * 1e6 / ops[name]
                for name in names}


# ---------------------------------------------------------------------------


class _NullServer(_api.Server):
    def op_noop(self):
        yield _api.Timeout(0.0)
        return None


class LayerLadder(Workload):
    name = "layer_ladder"
    why = ("six rungs, each calling one layer's public API directly: the "
           "bypass workload for every efs/core/traffic change")
    trace_scale = 0.02
    trace_roots = ("disk", "call.")

    #: rung -> (operations at scale 1, the rate metric it feeds)
    RUNGS = {
        "sim.timeout": (1_000_000, "sim.timeout_events_per_host_s"),
        "sim.mailbox": (200_000, "sim.mailbox_msgs_per_host_s"),
        "machine.rpc": (50_000, "machine.rpc_roundtrips_per_host_s"),
        "storage.ram": (40_000, "storage.ops_per_host_s"),
        "efs.file": (16_000, "efs.block_ops_per_host_s"),
        "core.naive": (8_000, "core.naive_ops_per_host_s"),
    }

    def build(self, st):
        st.n = {rung: _sized(full, st.scale)
                for rung, (full, _rate) in self.RUNGS.items()}
        rng = st.rng
        st.delays = [rng.uniform(0.0005, 0.0015) for _ in range(1024)]
        st.timeout_sim = _api.Simulator(seed=st.seed)
        st.mailbox_sim = _api.Simulator(seed=st.seed)
        st.rpc_sim = _api.Simulator(seed=st.seed)
        st.sims = [st.timeout_sim, st.mailbox_sim, st.rpc_sim]
        machine = _api.Machine(st.rpc_sim, 2)
        st.machines = [machine]
        st.null_server = _NullServer(machine.node(0), "null")
        st.servers = [st.null_server]
        st.rpc_client = _api.Client(machine.node(1))
        # One single-LFS stack per upper rung, so each rung's counters
        # and clock are its own.
        st.storage_sys, st.efs_sys, st.core_sys = st.systems = [
            _api.paper_system(1, seed=st.seed, obs=st.obs) for _ in range(3)
        ]
        st.storage_data = _blocks(rng, st.n["storage.ram"] // 2)
        st.efs_data = _blocks(rng, st.n["efs.file"] // 2)
        st.core_data = _blocks(rng, st.n["core.naive"] // 2)

    def drive(self, st, spans):
        n = st.n
        got = st.got = {}

        sim = st.timeout_sim
        delays = st.delays

        def ticker():
            for lo in range(0, n["sim.timeout"], 1024):
                spans.mark()
                for i in range(lo, min(lo + 1024, n["sim.timeout"])):
                    yield _api.Timeout(delays[i & 1023])

        with self.phase(st, spans, "sim.timeout", sim, n["sim.timeout"]):
            sim.run_process(ticker())

        sim = st.mailbox_sim
        left, right = _api.Mailbox(sim, "left"), _api.Mailbox(sim, "right")
        pairs = n["sim.mailbox"]
        got["pongs"] = 0

        def ping():
            for lo in range(0, pairs, 512):
                spans.mark()
                for i in range(lo, min(lo + 512, pairs)):
                    right.deliver(i)
                    got["pongs"] += (yield left.recv()) == i

        def pong():
            for _ in range(pairs):
                left.deliver((yield right.recv()))

        with self.phase(st, spans, "sim.mailbox", sim, pairs):
            sim.spawn(pong())
            sim.run_process(ping())

        sim = st.rpc_sim
        client, port = st.rpc_client, st.null_server.port

        def caller():
            for _ in self.paced(spans, range(n["machine.rpc"]), 128):
                yield from client.call(port, "noop")

        with self.phase(st, spans, "machine.rpc", sim, n["machine.rpc"]):
            sim.run_process(caller())

        system = st.storage_sys
        disk = system.disks[0]
        data = st.storage_data

        def raw_io():
            for block in self.paced(spans, range(len(data)), 128):
                yield from disk.write(block, data[block])
            out = []
            for block in self.paced(spans, range(len(data)), 128):
                out.append((yield from disk.read(block)))
            return out

        with self.phase(st, spans, "storage.ram", system.sim, 2 * len(data)):
            got["storage"] = system.run(raw_io())

        system = st.efs_sys
        efs = system.efs_client(0)

        def local_file():
            yield from efs.create(1)
            yield from self.marked(
                spans, efs.write_file(1, st.efs_data), every=16)
            return (yield from self.marked(spans, efs.read_file(1), every=16))

        with self.phase(st, spans, "efs.file", system.sim,
                        2 * len(st.efs_data)):
            got["efs"] = system.run(local_file())

        system = st.core_sys
        naive = system.naive_client()

        def stream():
            yield from naive.create("ladder")
            for chunk in self.paced(spans, st.core_data, 8):
                yield from naive.seq_write("ladder", chunk)
            return (yield from self.marked(
                spans, naive.read_all("ladder"), every=16))

        with self.phase(st, spans, "core.naive", system.sim,
                        2 * len(st.core_data)):
            got["core"] = system.run(stream())
        st.attempted += sum(n.values())

    def verify(self, st):
        n, got = st.n, st.got
        clock = 0.0
        for i in range(n["sim.timeout"]):
            clock += st.delays[i & 1023]
        self.check(st, st.timeout_sim.now == clock, "timeout clock drifted")
        self.check(st, got["pongs"] == n["sim.mailbox"], "ping-pong lost")
        self.check(st, st.null_server.requests_served == n["machine.rpc"],
                   "null RPCs lost")
        self.check(st, [bytes(b[:BLOCK]) for b in got["storage"]]
                   == st.storage_data, "raw device bytes differ")
        self.check(st, got["efs"] == st.efs_data, "EFS file bytes differ")
        self.check(st, got["core"] == st.core_data, "naive file bytes differ")
        # (the storage rung wrote raw blocks over its idle LFS's image)
        self.check(st, all(r.clean for s in (st.efs_sys, st.core_sys)
                           for r in _api.check_system(s)), "fsck unclean")

    def host_metrics(self, ops, host):
        return {rate: ops[rung] / host[rung]
                for rung, (_full, rate) in self.RUNGS.items()}


# ---------------------------------------------------------------------------


class NaiveStream(Workload):
    name = "naive_stream"
    why = ("the Table 2 path: Bridge Server + RPC + EFS per block, every "
           "knob off, writes beside reads through the same layers")
    trace_scale = 1 / 32  # 512 writes + 512 reads
    trace_roots = ("call.seq_read",)
    BLOCKS = 16_384

    def build(self, st):
        st.blocks = _sized(self.BLOCKS, st.scale)
        st.system = _api.paper_system(8, seed=st.seed, obs=st.obs)
        st.systems = [st.system]
        st.data = _blocks(st.rng, st.blocks)

    def drive(self, st, spans):
        system, data = st.system, st.data
        sim = system.sim
        client = system.naive_client()
        st.read_back = read_back = []

        def create():
            yield from client.create("stream")

        def write():
            for chunk in self.paced(spans, data, 8):
                yield from client.seq_write("stream", chunk)

        def read():
            yield from client.open("stream")
            for _ in self.paced(spans, data, 16):
                read_back.append((yield from client.seq_read("stream"))[1])
            return (yield from client.seq_read("stream"))

        def delete():
            return (yield from client.delete("stream"))

        system.run(create())
        with self.phase(st, spans, "write", sim, len(data)):
            system.run(write())
        with self.phase(st, spans, "read", sim, len(data)):
            st.eof = system.run(read())
        st.freed = system.run(delete())
        st.attempted += 2 * len(data) + 4

    def verify(self, st):
        wrong = sum(a != b for a, b in zip(st.read_back, st.data))
        wrong += abs(len(st.read_back) - len(st.data))
        st.failed += wrong  # the reads are already counted as attempted
        if wrong:
            st.notes.append(f"{wrong} blocks read back wrong")
        self.check(st, st.eof == (None, None), "no EOF after the last block")
        self.check(st, st.freed >= len(st.data), "delete freed too little")
        self.check(st, not st.system.bridge.directory.names(),
                   "directory not empty")
        self.check(st, all(r.clean for r in _api.check_system(st.system)),
                   "fsck unclean")

    def sim_metrics(self, st):
        read_s, ops = st.phases["read"]
        model = self.model_seconds_per_op(st)
        return {"sim_model_err": abs(read_s / ops - model) / model,
                **self.per_op(st, ("write", "read"))}

    def host_metrics(self, ops, host):
        return self.host_per_op(ops, host, ("write", "read"))

    def model_seconds_per_op(self, st):
        # The cold arm: 2 048 blocks per LFS stream through a 64-block
        # EFS cache, so every track costs one device access.
        return _api.naive_read_seconds_per_block(st.system.config,
                                                 resident=False)


# ---------------------------------------------------------------------------


class CachedRead(Workload):
    name = "cached_read"
    why = ("the only workload where core/cache.py and core/prefetch.py run: "
           "a working set that fits the cache, one 4x too big, and writes "
           "that invalidate")
    trace_scale = 0.05
    trace_roots = ("call.seq_read", "call.random_read", "call.random_write")
    FILE_BLOCKS = 4096
    CACHE_BLOCKS = 1024
    HOT_BLOCKS = 512
    #: phase -> operations at scale 1
    PHASES = {"seq": 4096, "hot": 8192, "cold": 2048,
              "rewrite": 2048, "reread": 2048}

    def build(self, st):
        st.blocks = _sized(self.FILE_BLOCKS, st.scale, floor=64)
        st.system = _api.paper_system(
            8, seed=st.seed, obs=st.obs, prefetch_window=4,
            bridge_cache_blocks=_sized(self.CACHE_BLOCKS, st.scale, floor=16),
        )
        st.systems = [st.system]
        rng = st.rng
        st.shadow = _blocks(rng, st.blocks)
        st.hot = rng.sample(range(st.blocks),
                            _sized(self.HOT_BLOCKS, st.scale))
        ops = {p: _sized(n, st.scale) for p, n in self.PHASES.items()}
        ops["seq"] = st.blocks
        st.ops = ops
        st.hot_reads = rng.choices(st.hot, k=ops["hot"])
        st.cold_reads = rng.choices(range(st.blocks), k=ops["cold"])
        st.rewrites = [(block, rng.randbytes(BLOCK))
                       for block in rng.choices(st.hot, k=ops["rewrite"])]
        st.rereads = rng.choices(st.hot, k=ops["reread"])

    def preload(self, st):
        _api.build_file(st.system, "cached", st.shadow)

    def drive(self, st, spans):
        system, shadow = st.system, st.shadow
        sim = system.sim
        client = system.naive_client()
        st.wrong = 0
        st.hit_rate = {}

        def seq():
            yield from client.open("cached")
            for expect in self.paced(spans, shadow, 16):
                _n, data = yield from client.seq_read("cached")
                st.wrong += data != expect

        def reads(blocks, every):
            def body():
                for block in self.paced(spans, blocks, every):
                    data = yield from client.random_read("cached", block)
                    st.wrong += data != shadow[block]
            return body

        def rewrite():
            for block, data in self.paced(spans, st.rewrites, 1):
                yield from client.random_write("cached", block, data)
                shadow[block] = data

        # (a mark every 16 hits, 2 hint-less cold lookups, 1 rewrite:
        # just under a millisecond of host time each)
        bodies = {"seq": seq, "hot": reads(st.hot_reads, 16),
                  "cold": reads(st.cold_reads, 2), "rewrite": rewrite,
                  "reread": reads(st.rereads, 4)}
        for name, body in bodies.items():
            before = system.bridge.bridge_cache_stats()
            with self.phase(st, spans, name, sim, st.ops[name]):
                system.run(body())
            after = system.bridge.bridge_cache_stats()
            lookups = (after["hits"] + after["misses"]
                       - before["hits"] - before["misses"])
            if lookups:
                st.hit_rate[name] = (after["hits"] - before["hits"]) / lookups
        st.attempted += sum(st.ops.values())

    def verify(self, st):
        st.failed += st.wrong
        if st.wrong:
            st.notes.append(f"{st.wrong} reads differ from the shadow copy")
        final = st.system.run(st.system.naive_client().read_all("cached"))
        self.check(st, final == st.shadow, "final file differs from shadow")
        self.check(st, all(r.clean for r in _api.check_system(st.system)),
                   "fsck unclean")

    def sim_metrics(self, st):
        return {**{f"phase.{name}.cache_hit_rate": st.hit_rate[name]
                   for name in ("seq", "hot", "cold", "reread")},
                **self.per_op(st, self.PHASES)}

    def host_metrics(self, ops, host):
        return self.host_per_op(ops, host, self.PHASES)


# ---------------------------------------------------------------------------


class SortP32(Workload):
    name = "sort_p32"
    why = ("the Table 4 headline: tools.sort + efs + storage work on the LFS "
           "nodes while the Bridge Server idles; the widest machine, so "
           "build cost and memory show")
    trace_scale = 1 / 64  # 64 records, two per node
    RECORDS = 4096

    def build(self, st):
        st.records = _sized(self.RECORDS, st.scale, floor=64)
        st.system = _api.paper_system(32, seed=st.seed, obs=st.obs)
        st.systems = [st.system]
        st.keys = _api.uniform_keys(st.records, seed=st.seed)
        st.source = _api.record_chunks(st.keys, seed=st.seed)

    def preload(self, st):
        _api.build_file(st.system, "unsorted", st.source)

    def drive(self, st, spans):
        system = st.system
        tool = _api.SortTool(system.client_node, system.bridge.port,
                             system.config)
        with self.phase(st, spans, "sort", system.sim, st.records):
            st.result = system.run(
                self.marked(spans, tool.run("unsorted", "sorted")))
        st.attempted += st.records

    def verify(self, st):
        output = st.system.run(st.system.naive_client().read_all("sorted"))
        keys = [int.from_bytes(record[:8], "big") for record in output]
        self.check(st, keys == sorted(st.keys), "output keys not sorted input")
        self.check(st, sorted(output) == sorted(st.source),
                   "output is not a permutation of the input records")
        self.check(st, all(r.clean for r in _api.check_system(st.system)),
                   "fsck unclean")

    def sim_metrics(self, st):
        return {"tools.sort.local_sim_s": st.result.local_sort_time,
                "tools.sort.merge_sim_s": st.result.merge_time}

    def host_metrics(self, ops, host):
        return {"tools.sort.records_per_host_s": ops["sort"] / host["sort"]}


# ---------------------------------------------------------------------------


class MetadataBatch(Workload):
    name = "metadata_batch"
    why = ("metadata only, no data blocks: per-name loops against the "
           "batched m-ops on identical fabrics, where the op-table "
           "refactor lands")
    trace_scale = 0.02
    ROUNDS = 5
    NAMES = 1024  # per round; 2 048 in one round overflow an EFS bucket
    WINDOW = 16
    PARTITIONS = 4

    def build(self, st):
        count = _sized(self.NAMES, st.scale, floor=32)
        config = _api.DEFAULT_CONFIG.with_changes(
            bridge_fanout_limit=self.WINDOW)
        st.arms = {
            arm: _api.paper_system(
                4, seed=st.seed, obs=st.obs, config=config,
                bridge_server_count=self.PARTITIONS,
            )
            for arm in ("loop", "batch")
        }
        st.systems = list(st.arms.values())
        tag = f"{st.seed & 0xFFFFFFFF:08x}"
        st.rounds = [
            [f"meta/{tag}/r{r}/d{i % 16:02d}/f{i:05d}" for i in range(count)]
            for r in range(self.ROUNDS)
        ]

    def _loop_round(self, spans, client, names):
        for name in self.paced(spans, names, 8):
            yield from client.create(name, width=1)
        for name in self.paced(spans, names, 16):
            yield from client.open(name)
        stats = []
        for name in self.paced(spans, names, 16):
            stats.append((yield from client.stat(name)))
        freed = 0
        for name in self.paced(spans, names, 8):
            freed += yield from client.delete(name)
        return stats, freed, 0

    def _batch_round(self, spans, client, names):
        def batched(call):
            return self.marked(spans, call)

        bad = 0
        for outcome in (yield from batched(client.mcreate(names, width=1))):
            bad += not outcome.ok
        for outcome in (yield from batched(client.mopen(names))):
            bad += not outcome.ok
        stats = []
        for outcome in (yield from batched(client.mstat(names))):
            bad += not outcome.ok
            stats.append(outcome.value)
        freed = 0
        for outcome in (yield from batched(client.mdelete(names))):
            bad += not outcome.ok
            freed += outcome.value or 0
        return stats, freed, bad

    def drive(self, st, spans):
        st.out = {}
        st.rpcs = {}
        for arm, body in (("loop", self._loop_round),
                          ("batch", self._batch_round)):
            system = st.arms[arm]
            client = system.partitioned_client()
            served = sum(b.requests_served for b in system.bridges)
            ops = 4 * sum(len(names) for names in st.rounds)
            with self.phase(st, spans, arm, system.sim, ops):
                st.out[arm] = [system.run(body(spans, client, names))
                               for names in st.rounds]
            st.rpcs[arm] = (
                sum(b.requests_served for b in system.bridges) - served
            )
            st.attempted += ops

    def verify(self, st):
        def shape(stat):
            return (stat.name, stat.width, stat.start, stat.total_blocks)

        for names, loop, batch in zip(st.rounds, st.out["loop"],
                                      st.out["batch"]):
            st.failed += batch[2]
            self.check(st, len(loop[0]) == len(batch[0]) == len(names)
                       and all(shape(a) == shape(b)
                               for a, b in zip(loop[0], batch[0]))
                       and [s.name for s in loop[0]] == names,
                       "loop and batched stats differ")
            self.check(st, loop[1] == batch[1], "arms freed different blocks")
        for system in st.systems:
            self.check(st, not any(b.directory.names()
                                   for b in system.bridges),
                       "directory not empty")
            self.check(st, all(r.clean for r in _api.check_system(system)),
                       "fsck unclean")

    def sim_metrics(self, st):
        model = 4 * sum(
            _api.batched_rpc_count(names, self.PARTITIONS, window=self.WINDOW)
            for names in st.rounds
        )
        return {
            "core.meta.loop_sim_s": st.phases["loop"][0],
            "core.meta.batch_sim_s": st.phases["batch"][0],
            "core.meta.loop_rpcs": st.rpcs["loop"],
            "core.meta.batch_rpcs": st.rpcs["batch"],
            "sim_model_err": abs(st.rpcs["batch"] - model) / model,
        }

    def host_metrics(self, ops, host):
        return {f"core.meta.{arm}_host_s": host[arm]
                for arm in ("loop", "batch")}


# ---------------------------------------------------------------------------

FILES = 24
FILE_BLOCKS = 12
WINDOW_S = 40.0
SLO_P99_S = 0.5
SLO_DRAIN_S = 1.0


def _catalog(st, system):
    """Build the popularity catalog and remember what was written."""
    names = [f"tf{index:03d}" for index in range(FILES)]
    st.written = {}
    for name in names:
        chunks = [b"%s-%03d|" % (name.encode(), i) for i in range(FILE_BLOCKS)]
        _api.build_file(system, name, chunks)
        st.written[name] = chunks
    return _api.ZipfCatalog(names, FILE_BLOCKS, skew=1.1)


def _window(spans, system, catalog, rate, duration, side=None, mix=None):
    """Drive one open-loop window to quiescence; returns its record."""
    recorder = RawSLORecorder()
    generator = _api.TrafficGenerator(system, catalog, recorder=recorder,
                                      mix=mix)
    marks = [b.busy_time for b in system.bridges]
    start = system.sim.now

    def source():
        if side is not None:
            system.client_node.spawn(side(), name="ledger.side")
        return (yield from Workload.marked(
            spans, generator.open_loop(rate, duration), every=4))

    system.run(source(), name="ledger.window")
    elapsed = system.sim.now - start
    reads = sorted(recorder.raw.get("read", ()))
    active = [
        (b.busy_time - mark) / elapsed
        for b, mark in zip(system.bridges, marks) if b.busy_time > mark
    ]
    return SimpleNamespace(
        rate=rate, offered=recorder.total(), ok=recorder.total("ok"),
        shed=recorder.total("shed") + recorder.total("throttled"),
        abandoned=recorder.total("abandoned"),
        failed=recorder.total("failed"),
        reads=len(reads), read_p50=nearest_rank(reads, 50),
        read_p99=nearest_rank(reads, 99),
        drain=max(0.0, elapsed - duration),
        goodput=recorder.total("ok") / elapsed,
        util_max=max(active, default=0.0),
        util_spread=max(active, default=0.0) - min(active, default=0.0),
    )


def _count_arrivals(st, headline):
    """Every arrival is an operation; anything but ``ok`` failed.
    ``headline`` names the window whose read percentiles are reported
    as ``sim_read_*``; its sample count is printed beside them."""
    st.read_samples = st.windows[headline].reads
    st.totals = {
        f"traffic.{key}": sum(getattr(w, key) for w in st.windows.values())
        for key in ("offered", "ok", "shed", "abandoned", "failed")
    }
    st.attempted += st.totals["traffic.offered"]
    st.failed += st.totals["traffic.offered"] - st.totals["traffic.ok"]


def _verify_catalog(workload, st, system):
    """Quiesced-fabric checks shared by the two open-loop workloads:
    ownership and fsck via the repo's safety oracle, plus every block
    being either its preloaded bytes or one whole traffic write."""
    oracle = st.oracle = _api.fabric_safety_oracle(system, list(st.written))
    for key in ("lost", "misrouted", "duplicated", "content_mismatched"):
        workload.check(st, oracle[key] == 0, f"{oracle[key]} files {key}")
    workload.check(st, oracle["fsck_clean"], "fsck unclean")
    client = system.naive_client()
    for name, chunks in st.written.items():
        blocks = system.run(client.read_all(name))
        legal = len(blocks) == len(chunks) and all(
            got.rstrip(b"\x00") == want
            or (got.startswith(b"traffic-") and got[16:17] == b"|")
            for got, want in zip(blocks, chunks)
        )
        workload.check(st, legal, f"{name} holds bytes nobody wrote")


class TrafficMix(Workload):
    name = "traffic_mix"
    why = ("open-loop Poisson arrivals: the only workload with thousands of "
           "concurrent processes, partition routing and admission")
    trace_scale = 0.02  # ~340 arrivals
    #: window -> offered req/s; the last runs behind fair queueing
    WINDOWS = {"w60": 60.0, "w90": 90.0, "w120": 120.0, "w150fair": 150.0}

    def build(self, st):
        st.duration = max(0.5, WINDOW_S * st.scale)
        st.system = _api.BridgeSystem(
            4, seed=st.seed, obs=st.obs, bridge_server_count=4,
            disk_latency=_api.FixedLatency(0.0005),
        )
        st.systems = [st.system]

    def preload(self, st):
        st.catalog = _catalog(st, st.system)

    def drive(self, st, spans):
        system = st.system
        st.windows = {}
        for name, rate in self.WINDOWS.items():
            if name == "w150fair":
                # depth 0: fair queueing reorders but never refuses, so
                # the overload window queues and drains instead of
                # shedding (the benchmark contract wants no failed ops).
                system.install_admission({"policy": "fair", "depth": 0})
            with self.phase(st, spans, name, system.sim):
                st.windows[name] = _window(spans, system, st.catalog, rate,
                                           st.duration)
        _count_arrivals(st, "w90")

    def verify(self, st):
        _verify_catalog(self, st, st.system)

    def sim_metrics(self, st):
        w = st.windows
        out = dict(st.totals)
        for name, window in w.items():
            out[f"traffic.{name}.read_p99_ms"] = window.read_p99 * 1e3
            out[f"traffic.{name}.goodput_rps"] = window.goodput
            out[f"traffic.{name}.drain_sim_s"] = window.drain
        in_slo = [
            window.rate for name, window in w.items() if name != "w150fair"
            and window.read_p99 <= SLO_P99_S and window.drain <= SLO_DRAIN_S
        ]
        queues = [b.admission.queue for b in st.system.bridges]
        out.update({
            "sim_read_p50_ms": w["w90"].read_p50 * 1e3,
            "sim_read_p99_ms": w["w90"].read_p99 * 1e3,
            "sim_goodput_rps": w["w150fair"].goodput,
            "sim_rate_in_slo_rps": max(in_slo, default=0.0),
            "core.util_max": w["w120"].util_max,
            "core.util_spread": w["w120"].util_spread,
            "traffic.queue_wait_p99_ms": max(q.wait.p99 for q in queues) * 1e3,
            "traffic.queue_peak_depth": max(q.peak_depth for q in queues),
        })
        return out


class ResizeUnderLoad(Workload):
    name = "resize_under_load"
    why = ("the only workload where elastic runs: ring routing, the "
           "forwarding window and migrate RPCs under live traffic")
    trace_scale = 0.025  # ~240 arrivals
    RATE = 80.0
    WINDOWS = ("before", "during", "after")
    #: The default mix less its 4 % parallel-open jobs: a job's state
    #: lives on the server that opened it and does not survive its
    #: file's migration today, and a benchmark workload must not fail.
    MIX = {"read": 0.60, "write": 0.23, "meta": 0.10, "tool": 0.07}

    def build(self, st):
        st.duration = max(0.5, WINDOW_S * st.scale)
        st.system = _api.BridgeSystem(
            4, seed=st.seed, obs=st.obs, bridge_server_count=2, elastic=4,
            disk_latency=_api.FixedLatency(0.0005),
        )
        st.systems = [st.system]

    def preload(self, st):
        st.catalog = _catalog(st, st.system)

    def drive(self, st, spans):
        system = st.system

        def resize():
            st.report = yield from system.resize_fabric(
                4, moves_per_second=50)

        st.windows = {}
        for name in self.WINDOWS:
            with self.phase(st, spans, name, system.sim):
                st.windows[name] = _window(
                    spans, system, st.catalog, self.RATE, st.duration,
                    side=resize if name == "during" else None,
                    mix=_api.RequestMix(self.MIX),
                )
        _count_arrivals(st, "during")

    def verify(self, st):
        _verify_catalog(self, st, st.system)
        self.check(st, st.report.moved == st.report.planned,
                   "migration moved fewer entries than planned")

    def sim_metrics(self, st):
        w, report, oracle = st.windows, st.report, st.oracle
        out = dict(st.totals)
        for name, window in w.items():
            out[f"elastic.{name}.read_p99_ms"] = window.read_p99 * 1e3
        out.update({
            "sim_read_p50_ms": w["during"].read_p50 * 1e3,
            "sim_read_p99_ms": w["during"].read_p99 * 1e3,
            "core.util_max": w["during"].util_max,
            "core.util_spread": w["during"].util_spread,
            "elastic.planned": report.planned,
            "elastic.moved": report.moved,
            "elastic.forwarded": report.forwarded,
            "elastic.migration_sim_s": report.duration,
            "elastic.lost": oracle["lost"],
            "elastic.misrouted": oracle["misrouted"],
            "elastic.duplicated": oracle["duplicated"],
            "elastic.content_mismatched": oracle["content_mismatched"],
        })
        return out


WORKLOADS = {
    w.name: w for w in (
        LayerLadder(), NaiveStream(), CachedRead(), SortP32(),
        MetadataBatch(), TrafficMix(), ResizeUnderLoad(),
    )
}
