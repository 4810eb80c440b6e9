"""E8 — section 4.5's Create improvement.

"The initiation and termination are sequential, leading to an almost
linear increase in overhead for additional processors.  Performance
could be improved somewhat by sending startup and completion messages
through an embedded binary tree."  This bench measures both dispatch
modes and fits their growth.
"""

from _bench import Bench, fields, paper_ps
from repro.analysis import fit_line, format_table
from repro.harness.experiments import run_create_tree_experiment


def sweep(quick):
    return {p: run_create_tree_experiment(p) for p in paper_ps(quick)}


def sequential_fit(runs):
    ps = sorted(runs)
    return fit_line(ps, [runs[p].sequential_ms for p in ps])


def check(runs):
    ps = sorted(runs)
    widest = runs[ps[-1]]
    # sequential dispatch grows ~linearly in p
    assert 8.0 < sequential_fit(runs)[1] < 30.0
    # the tree wins, and wins more the wider the system
    assert widest.tree_ms < widest.sequential_ms
    advantage = {p: runs[p].sequential_ms / runs[p].tree_ms for p in ps}
    assert advantage[ps[-1]] > advantage[4]
    # tree growth is sublinear: two doublings of p far from quadruple it
    assert widest.tree_ms < runs[ps[-3]].tree_ms * 2.5
    # the S23 batched arm amortizes the fixed per-create charges: each
    # file in an 8-wide mcreate costs less than either singleton path
    for p in ps:
        assert runs[p].batched_per_file_ms < runs[p].sequential_ms, p
        assert runs[p].batched_per_file_ms < runs[p].tree_ms, p


def render(runs):
    intercept, slope = sequential_fit(runs)
    return format_table(
        ["p", "sequential (ms)", "tree (ms)", "tree advantage",
         "batched (ms/file)"],
        [[p, run.sequential_ms, run.tree_ms,
          run.sequential_ms / run.tree_ms, run.batched_per_file_ms]
         for p, run in sorted(runs.items())],
        title="Create: sequential vs embedded-binary-tree dispatch",
    ) + (
        f"\n\nsequential fit: {intercept:.0f} + {slope:.1f}*p ms "
        f"(paper Table 2: 145 + 17.5*p)"
    )


def payload(runs):
    intercept, slope = sequential_fit(runs)
    return {
        "sequential_fit_ms": {"intercept": intercept, "slope": slope},
        "paper_fit_ms": {"intercept": 145.0, "slope": 17.5},
        "by_p": {
            str(p): fields(run, "sequential_ms", "tree_ms",
                           "batched_per_file_ms")
            for p, run in sorted(runs.items())
        },
    }


BENCH = Bench("create_tree", sweep, check, render, payload)
test_create_tree_dispatch = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
