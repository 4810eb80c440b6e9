"""Per-layer measurements, all taken from outside the program.

Three sources: public counters read before and after the drive
(:func:`snapshot` / :func:`counter_metrics`), a ``cProfile`` pass summed
by ``repro.<package>`` (:func:`host_split`), and the S19 critical-path
analyzer over a trace-scale run (:func:`sim_split`).  Layers are the
``src/repro`` packages.
"""

import pathlib
import pstats
import time

import _api

LAYERS = ("sim", "machine", "storage", "efs", "core", "tools", "traffic",
          "elastic", "obs", "other")
CATEGORIES = ("client", "net", "server", "disk", "queue")
_LEDGER_DIR = str(pathlib.Path(__file__).resolve().parent)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def snapshot(st):
    """Raw monotone counters of everything a workload state built."""
    systems = st.systems
    sims = st.sims + [s.sim for s in systems]
    machines = st.machines + [s.machine for s in systems]
    disks = [d for s in systems for d in s.disks]
    efs = [e for s in systems for e in s.efs_servers]
    bridges = [b for s in systems for b in s.bridges]
    servers = st.servers + efs + bridges + [r for s in systems for r in s.relays]
    caches = [c for c in (b.bridge_cache_stats() for b in bridges) if c]
    return {
        "sim_s": sum(sim.now for sim in sims),
        "events": sum(sim.events_executed for sim in sims),
        "messages": sum(m.network.messages_sent for m in machines),
        "rpcs": sum(s.requests_served for s in servers),
        "reads": sum(d.reads for d in disks),
        "writes": sum(d.writes for d in disks),
        "disk_busy": [(d.busy_time, d.sim.now) for d in disks],
        "efs_requests": sum(e.requests_served for e in efs),
        "efs_busy": sum(e.busy_time for e in efs),
        "efs_hits": sum(e.cache.hits for e in efs),
        "efs_misses": sum(e.cache.misses for e in efs),
        "efs_evictions": sum(e.cache.evictions for e in efs),
        "core_requests": sum(b.requests_served for b in bridges),
        "core_busy": [(b.busy_time, b.node.machine.sim.now) for b in bridges],
        "core_forwarded": sum(b.forwarded for b in bridges),
        "core_hits": sum(c["hits"] for c in caches),
        "core_misses": sum(c["misses"] for c in caches),
        "core_evictions": sum(c["evictions"] for c in caches),
        "prefetch_used": sum(c["prefetch_used"] for c in caches),
        "prefetch_wasted": sum(c["prefetch_wasted"] for c in caches),
    }


def _ratio(top, bottom):
    return top / bottom if bottom else 0.0


def _utilizations(before, after):
    """Busy share of each device or server over the drive, counting
    only those that worked and whose clock moved."""
    return [
        (busy1 - busy0) / (now1 - now0)
        for (busy0, now0), (busy1, now1) in zip(before, after)
        if busy1 > busy0 and now1 > now0
    ]


def counter_metrics(before, after):
    """The drive's share of every counter: deterministic per seed."""
    d = {key: after[key] - before[key] for key in after
         if not isinstance(after[key], list)}
    disk_util = _utilizations(before["disk_busy"], after["disk_busy"])
    core_util = _utilizations(before["core_busy"], after["core_busy"])
    return {
        "sim_s": d["sim_s"],
        "sim.events": d["events"],
        "machine.messages": d["messages"],
        "machine.rpcs": d["rpcs"],
        "storage.reads": d["reads"],
        "storage.writes": d["writes"],
        "storage.busy_sim_s": sum(b1 - b0 for (b0, _), (b1, _) in
                                  zip(before["disk_busy"], after["disk_busy"])),
        "storage.util_max": max(disk_util, default=0.0),
        "efs.requests": d["efs_requests"],
        "efs.busy_sim_s": d["efs_busy"],
        "efs.cache_hit_rate": _ratio(d["efs_hits"],
                                     d["efs_hits"] + d["efs_misses"]),
        "efs.cache_evictions": d["efs_evictions"],
        "efs.disk_ops_per_request": _ratio(d["reads"] + d["writes"],
                                           d["efs_requests"]),
        "core.requests": d["core_requests"],
        "core.busy_sim_s": sum(b1 - b0 for (b0, _), (b1, _) in
                               zip(before["core_busy"], after["core_busy"])),
        "core.util_max": max(core_util, default=0.0),
        "core.util_spread": (max(core_util, default=0.0)
                             - min(core_util, default=0.0)),
        "core.forwarded": d["core_forwarded"],
        "core.cache_hit_rate": _ratio(d["core_hits"],
                                      d["core_hits"] + d["core_misses"]),
        "core.cache_evictions": d["core_evictions"],
        "core.prefetch_used": d["prefetch_used"],
        "core.prefetch_wasted": d["prefetch_wasted"],
    }


# ---------------------------------------------------------------------------
# Host split: cProfile self time by package
# ---------------------------------------------------------------------------


def _layer_of(filename):
    """The layer owning a profiled function, or ``None`` for builtins
    and the standard library (charged to whoever called them)."""
    at = filename.rfind("/repro/")
    if at >= 0:
        package = filename[at + 7:].split("/", 1)[0]
        return package if package in LAYERS else "other"
    if filename.startswith(_LEDGER_DIR):
        return "other"
    return None


def host_split(profile):
    """``{L.host_self_share, L.calls}`` from one ``cProfile.Profile``.

    Self time of builtin and stdlib functions goes to the package that
    called them (pstats keeps per-caller self time), so the shares sum
    to 1 over the layers."""
    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, nc, tt, _ct, callers) in pstats.Stats(profile).stats.items():
        layer = _layer_of(func[0])
        if layer is not None:
            self_time[layer] += tt
            calls[layer] += nc
            continue
        charged = 0.0
        for caller, (_ccc, _cnc, caller_tt, _cct) in callers.items():
            self_time[_layer_of(caller[0]) or "other"] += caller_tt
            charged += caller_tt
        self_time["other"] += tt - charged
    total = sum(self_time.values())
    out = {}
    for layer in LAYERS:
        out[f"{layer}.host_self_share"] = _ratio(self_time[layer], total)
        out[f"{layer}.calls"] = calls[layer]
    return out


# ---------------------------------------------------------------------------
# Sim split: the S19 critical-path analyzer
# ---------------------------------------------------------------------------


def sim_split(workload, st):
    """``cp.*`` and ``obs.*`` from an obs-on run of ``st``."""
    seconds = dict.fromkeys(CATEGORIES, 0.0)
    latency = 0.0
    ops = spans = 0
    start = time.perf_counter()
    for system in st.systems:
        spans += len(system.obs.spans)
        for prefix in workload.trace_roots:
            found = _api.attribute_ops(system.obs, prefix)
            ops += found["ops"]
            latency += found["latency_seconds"]
            for category, value in found["attribution_seconds"].items():
                seconds[category] = seconds.get(category, 0.0) + value
    out = {f"cp.{category}_share": _ratio(seconds[category], latency)
           for category in CATEGORIES}
    out["cp.ms_per_op"] = _ratio(latency * 1e3, ops)
    out["obs.spans"] = spans
    out["obs.attribute_host_s"] = time.perf_counter() - start
    return out, _ratio(latency, ops)
