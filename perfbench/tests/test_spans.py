"""Span self-time arithmetic."""

import pytest

from spans import SpanRecorder


def test_self_time_subtracts_the_union_of_children():
    spans = SpanRecorder()
    root = spans.add("op", 0.0, 10.0)
    spans.add("a", 1.0, 3.0, root)
    spans.add("b", 2.0, 5.0, root)  # overlaps a: union is [1, 5]
    spans.add("c", 8.0, 12.0, root)  # clipped to the parent: [8, 10]
    own = spans.self_times()
    assert own[root] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1:] == pytest.approx([2.0, 3.0, 4.0])


def test_grandchildren_count_against_their_parent_only():
    spans = SpanRecorder()
    root = spans.add("op", 0.0, 10.0)
    child = spans.add("child", 2.0, 8.0, root)
    spans.add("grandchild", 3.0, 5.0, child)
    own = spans.self_times()
    assert own[root] == pytest.approx(4.0)
    assert own[child] == pytest.approx(4.0)
    assert own[2] == pytest.approx(2.0)
    # Self times of one tree add up to the root's duration.
    assert sum(own) == pytest.approx(spans.duration(root))


def test_self_times_by_name_and_context_manager():
    spans = SpanRecorder()
    with spans.span("op") as root:
        with spans.span("work", root):
            pass
        with spans.span("work", root):
            pass
    grouped = spans.self_times_by_name()
    assert set(grouped) == {"op", "work"}
    assert len(grouped["work"]) == 2
    assert sum(grouped["op"]) + sum(grouped["work"]) == pytest.approx(
        spans.duration(root)
    )


def test_span_ending_before_it_starts_is_rejected():
    with pytest.raises(ValueError):
        SpanRecorder().add("bad", 2.0, 1.0)
