"""The markdown report generator (it runs experiments, so it lives in
``harness``)."""

import pytest


def test_build_report_renders_all_sections():
    from repro.harness.report import build_report

    report = build_report(ps=(2, 4), blocks=64, records=64)
    assert report.startswith("# Bridge reproduction report")
    assert "## Table 2: basic operations" in report
    assert "## Table 3: copy tool" in report
    assert "## Table 4: merge sort tool" in report
    assert "## Redundancy schemes (p=4)" in report
    assert "Create fit:" in report
    # markdown tables present
    assert report.count("|---|") >= 4


def test_cache_section_reports_counters():
    from repro.harness.report import cache_section
    from repro.harness.builders import BridgeSystem
    from repro.workloads import build_file, pattern_chunks

    system = BridgeSystem(4, seed=7)
    build_file(system, "traffic", pattern_chunks(8))
    section = cache_section(system)
    assert "## Block cache" in section
    for header in ("hits", "misses", "hit rate", "evictions", "writebacks"):
        assert header in section
    # one row per LFS plus the totals row
    assert section.count("\n|") >= 4 + 2


def test_redundancy_section_covers_all_schemes():
    from repro.harness.report import redundancy_section

    section = redundancy_section(p=4, blocks=8)
    for scheme in ("none", "mirror", "parity"):
        assert scheme in section
    assert "cache hits" in section


def test_build_report_validates_ps():
    from repro.harness.report import build_report

    with pytest.raises(ValueError):
        build_report(ps=())
