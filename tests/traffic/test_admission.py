"""S21 unit tests: admission-control mechanisms in isolation.

The queue and bucket are plain deterministic state machines, so these
tests drive them directly with synthetic request envelopes — no
simulator needed until the integration tests.
"""

from types import SimpleNamespace

import pytest

from repro.traffic import (
    DEFAULT_WEIGHTS,
    AdmissionControl,
    AdmissionQueue,
    TokenBucket,
    build_admission,
    classify,
)


def req(cls=None, method="random_read", seq=0, sent_at=None):
    return SimpleNamespace(traffic_class=cls, method=method, seq=seq,
                           sent_at=sent_at)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_prefers_explicit_stamp():
    assert classify(req(cls="parallel", method="random_read")) == "parallel"


def test_classify_falls_back_to_method_map():
    assert classify(req(method="random_read")) == "read"
    assert classify(req(method="seq_write")) == "write"
    assert classify(req(method="open")) == "meta"
    assert classify(req(method="list_read")) == "tool"
    assert classify(req(method="parallel_open")) == "parallel"
    assert classify(req(method="frobnicate")) == "other"
    assert classify(object()) == "other"


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------


def test_token_bucket_burst_then_refusal():
    bucket = TokenBucket(rate=60.0)  # banks three tokens
    now = 0.0
    assert [bucket.try_take(now) for _ in range(4)] == [True, True, True, False]


def test_token_bucket_refills_over_time():
    bucket = TokenBucket(rate=10.0)  # banks one token
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)
    # 0.1 s at 10 tokens/s refills exactly one token.
    assert bucket.try_take(0.1)
    assert not bucket.try_take(0.1)


def test_token_bucket_caps_at_burst():
    bucket = TokenBucket(rate=40.0)  # banks two tokens
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    # A long idle period cannot bank more than ``burst`` tokens.
    taken = sum(bucket.try_take(10.0) for _ in range(10))
    assert taken == 2


def test_token_bucket_validates():
    with pytest.raises(ValueError):
        TokenBucket(0.0)


# ---------------------------------------------------------------------------
# Bounded FIFO queue with shedding
# ---------------------------------------------------------------------------


def test_fifo_queue_preserves_order_and_measures_wait():
    queue = AdmissionQueue(depth=0)
    first, second = req(seq=1, sent_at=0.0), req(seq=2, sent_at=0.5)
    queue.enqueue(first, now=0.0)
    queue.enqueue(second, now=0.5)
    assert len(queue) == 2
    assert queue.pick(now=1.0) is first
    assert queue.pick(now=1.0) is second
    assert queue.wait.count == 2
    # Waits are measured from ``sent_at``: 1.0 and 0.5 seconds.
    assert queue.wait.total == pytest.approx(1.5)
    assert queue.peak_depth == 2


def test_wait_falls_back_to_enqueue_time_without_stamp():
    queue = AdmissionQueue()
    message = req(seq=1)
    message.sent_at = None
    queue.enqueue(message, now=2.0)
    queue.pick(now=2.25)
    assert queue.wait.total == pytest.approx(0.25)


def test_bounded_queue_sheds_past_depth_and_serves_rejects_first():
    queue = AdmissionQueue(depth=2)
    kept = [req(seq=i) for i in range(2)]
    for message in kept:
        queue.enqueue(message, now=0.0)
    overflow = req(seq=99)
    queue.enqueue(overflow, now=0.0)
    assert queue.shed_count == 1
    assert overflow.admission_shed is True
    # The reject lane outranks real work: shedding must be cheap.
    assert queue.pick(now=0.0) is overflow
    assert queue.pick(now=0.0) is kept[0]
    assert queue.pick(now=0.0) is kept[1]
    assert len(queue) == 0
    # Shed requests never pollute the wait histogram.
    assert queue.wait.count == 2


def test_queue_validates_depth():
    with pytest.raises(ValueError):
        AdmissionQueue(depth=-1)


# ---------------------------------------------------------------------------
# Weighted fair queueing
# ---------------------------------------------------------------------------


def test_wfq_backlogged_classes_share_by_weight():
    """A burst of 8 tool jobs arriving *before* 4 reads cannot starve
    them: with weights 4:1 every read is served within the first five
    picks."""
    queue = AdmissionQueue(depth=0, weights={"read": 4.0, "tool": 1.0})
    tools = [req(cls="tool", seq=i) for i in range(8)]
    reads = [req(cls="read", seq=100 + i) for i in range(4)]
    for message in tools + reads:
        queue.enqueue(message, now=0.0)
    order = [queue.pick(now=0.0) for _ in range(12)]
    first_five = order[:5]
    assert sum(1 for m in first_five if m.traffic_class == "read") >= 4
    # All twelve drain exactly once.
    assert sorted(id(m) for m in order) == sorted(id(m) for m in tools + reads)


def test_wfq_is_work_conserving_fifo_within_class():
    queue = AdmissionQueue(depth=0, weights=dict(DEFAULT_WEIGHTS))
    messages = [req(cls="read", seq=i) for i in range(5)]
    for message in messages:
        queue.enqueue(message, now=0.0)
    assert [queue.pick(now=0.0) for _ in range(5)] == messages


def test_wfq_unknown_class_uses_other_weight():
    queue = AdmissionQueue(depth=0, weights={"read": 4.0, "other": 1.0})
    queue.enqueue(req(cls="mystery", seq=1), now=0.0)
    assert queue.pick(now=0.0).traffic_class == "mystery"


def test_wfq_pick_empty_raises():
    with pytest.raises(IndexError):
        AdmissionQueue(depth=0, weights={"read": 1.0}).pick(now=0.0)


# ---------------------------------------------------------------------------
# build_admission
# ---------------------------------------------------------------------------


def test_build_admission_none_specs():
    assert build_admission(None) is None
    assert build_admission({"policy": "none"}) is None


def test_build_admission_policies():
    bucket = build_admission({"policy": "token-bucket", "rate": 100})
    assert bucket.bucket.rate == 100
    assert bucket.bucket.burst == 5  # a twentieth of a second's tokens
    assert bucket.queue is None

    bounded = build_admission({"policy": "bounded", "depth": 7})
    assert bounded.queue.depth == 7
    assert bounded.queue.weights is None

    fair = build_admission({"policy": "fair"})
    assert fair.queue.weights == DEFAULT_WEIGHTS

    fifo = build_admission({"policy": "fifo"})
    assert fifo.queue.depth == 0
    assert fifo.bucket is None


def test_build_admission_passthrough_and_errors():
    """Only a dict is a spec: a shared control instance would share one
    bucket or queue across partitions, and a bare name is refused."""
    control = AdmissionControl("fifo", queue=AdmissionQueue())
    for spec in (control, "fair", "none", 42):
        with pytest.raises(TypeError):
            build_admission(spec)
    for spec in ({"policy": "predictive"},
                 {"policy": "fifo", "depth": 3},
                 {"policy": "token-bucket", "rate": 25, "burst": 5},
                 {"policy": "fair", "weights": {"read": 1.0}}):
        with pytest.raises(ValueError):
            build_admission(spec)


def test_build_admission_returns_fresh_instances():
    spec = {"policy": "fair", "depth": 4}
    first, second = build_admission(spec), build_admission(spec)
    assert first is not second
    assert first.queue is not second.queue
