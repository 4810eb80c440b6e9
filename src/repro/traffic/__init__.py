"""S21: the production traffic subsystem.

Open-loop load generation (:mod:`repro.traffic.generator` fed by
:mod:`repro.traffic.arrivals` and :mod:`repro.traffic.workload`),
admission control & fairness for the Bridge Server
(:mod:`repro.traffic.admission`), and per-class SLO telemetry
(:mod:`repro.traffic.slo`).  Everything defaults off: a system without
an installed admission control and without a running generator executes
the seed event sequence byte-for-byte.
"""

from repro.traffic.admission import (
    DEFAULT_WEIGHTS,
    AdmissionControl,
    AdmissionQueue,
    TokenBucket,
    build_admission,
    classify,
)
from repro.traffic.arrivals import BurstArrivals, PoissonArrivals, make_arrivals
from repro.traffic.generator import TrafficGenerator
from repro.traffic.slo import OUTCOMES, ClassStats, SLORecorder
from repro.traffic.workload import (
    CLASSES,
    DEFAULT_MIX,
    RequestMix,
    TrafficRequest,
    ZipfCatalog,
    sample_request,
)

__all__ = [
    "AdmissionControl",
    "AdmissionQueue",
    "BurstArrivals",
    "CLASSES",
    "ClassStats",
    "DEFAULT_MIX",
    "DEFAULT_WEIGHTS",
    "OUTCOMES",
    "PoissonArrivals",
    "RequestMix",
    "SLORecorder",
    "TokenBucket",
    "TrafficGenerator",
    "TrafficRequest",
    "ZipfCatalog",
    "build_admission",
    "classify",
    "make_arrivals",
    "sample_request",
]
