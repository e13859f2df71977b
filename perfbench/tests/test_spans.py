"""Self time from nested spans, and the wrappers that record them."""

import pytest

import tracer


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_direct_children():
    spans = [
        span("outer", 0.0, 10.0),
        span("child", 1.0, 3.0, parent=0),
        span("child", 5.0, 6.0, parent=0),
        span("grandchild", 1.5, 2.5, parent=1),
    ]
    assert tracer.self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_overlapping_children_count_once():
    # Children of one span on different threads may overlap in time.
    spans = [
        span("outer", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_the_parent():
    spans = [span("outer", 0.0, 4.0), span("late", 3.0, 9.0, parent=0)]
    assert tracer.self_times(spans)[0] == pytest.approx(3.0)


def test_covered_merges_intervals():
    assert tracer.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracer.covered([]) == 0.0


def test_outermost_skips_spans_nested_in_their_own_name():
    spans = [
        span("library.admit", 0, 5),
        span("library.admit", 1, 2, parent=0),
        span("x", 2, 3, parent=1),
    ]
    assert tracer.outermost(spans, 0)
    assert not tracer.outermost(spans, 1)
    assert tracer.outermost(spans, 2)


def test_wrappers_record_nested_spans_with_request_ids():
    tracer.REC.reset()

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.span_wrapper(leaf, "leaf", attrs=lambda a, k, r: {"r": r})

    def root(x):
        return wrapped_leaf(x) * 2

    wrapped_root = tracer.span_wrapper(root, "root", req=lambda a, k: ["req-1"])
    assert wrapped_root(1) == 4
    spans = tracer.REC.spans
    assert [s[0] for s in spans] == ["root", "leaf"]
    assert spans[1][3] == 0  # parent link
    assert spans[1][4] == ["req-1"]  # inherited request id
    assert spans[1][5] == {"r": 2}
    flat = [s[:6] for s in spans]
    selfs = tracer.self_times(flat)
    assert selfs[0] <= flat[0][2] - flat[0][1]
    tracer.REC.reset()
