"""Byte-exact layouts of the two text artifact writers and the log append,
and the order, errors and look-ahead of the worker pool."""

import threading
import time

import pytest

from sdiqrng._io import append_line, ordered_map, write_csv, write_report


def test_report_layout(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, [("decision", "keep"), ("blocks", 3), ("rate", 0.1),
                        ("big", 270000000.0), ("flag", False), ("pair", "1.5 +- 0.25")])
    assert path.read_bytes() == (b"decision: keep\nblocks: 3\nrate: 0.1\n"
                                 b"big: 270000000.0\nflag: False\npair: 1.5 +- 0.25\n")
    write_report(path, [])
    assert path.read_bytes() == b""


def test_csv_layout(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["title line", "n=2 ci95=0.5"], ["lag", "coefficient"],
              enumerate([1.0, -0.0625]))
    assert path.read_bytes() == (b"# title line\n# n=2 ci95=0.5\nlag,coefficient\n"
                                 b"0,1.0\n1,-0.0625\n")
    write_csv(path, [], ["name", "p", "passed"], [("runs", 1e-05, 1)])
    assert path.read_bytes() == b"name,p,passed\nruns,1e-05,1\n"


def test_append_line_writes_the_header_once_and_checks_it(tmp_path):
    path = tmp_path / "log.csv"
    append_line(path, "1,2", header="# v2: a,b")
    append_line(path, "3,4\n", header="# v2: a,b")
    assert path.read_bytes() == b"# v2: a,b\n1,2\n3,4\n"
    path.write_bytes(b"")
    append_line(path, "5,6", header="# v2: a,b")
    assert path.read_bytes() == b"# v2: a,b\n5,6\n"
    path.write_bytes(b"1,2\n")
    with pytest.raises(ValueError, match="first line"):
        append_line(path, "3,4", header="# v2: a,b")
    assert path.read_bytes() == b"1,2\n"


@pytest.mark.parametrize("threads", [1, 2, 5])
def test_ordered_map_keeps_input_order(threads):
    # later items finish first on a pool; results still come back in order
    def slow_square(i):
        time.sleep(0.002 * (6 - i))
        return i * i

    assert ordered_map(slow_square, range(6), threads) == [i * i for i in range(6)]
    assert ordered_map(slow_square, [], threads) == []


def test_ordered_map_runs_one_thread_in_the_caller():
    seen = ordered_map(lambda _: threading.get_ident(), range(3), 1)
    assert seen == [threading.get_ident()] * 3


@pytest.mark.parametrize("threads", [1, 3])
def test_ordered_map_raises_the_first_failure_in_input_order(threads):
    def fail_from_two(i):
        if i >= 2:
            time.sleep(0.01 if i == 2 else 0.0)   # item 3 fails first in time
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 2"):
        ordered_map(fail_from_two, range(5), threads)


@pytest.mark.parametrize("threads", [2, 4])
def test_ordered_map_pulls_items_lazily(threads):
    # no task returns until the event is set: items pulled by then are the
    # look-ahead, at most 2 * threads (plus one in hand)
    release = threading.Event()
    pulled = []

    def items():
        for i in range(50):
            pulled.append(i)
            yield i

    def wait_then_square(i):
        release.wait()
        return i * i

    result = []
    caller = threading.Thread(
        target=lambda: result.append(ordered_map(wait_then_square, items(), threads)))
    caller.start()
    try:
        deadline = time.monotonic() + 5.0
        while len(pulled) < 2 * threads and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)   # room to pull more, were the pool to
        assert 0 < len(pulled) <= 2 * threads + 1
    finally:
        release.set()
        caller.join(timeout=10.0)
    assert not caller.is_alive()
    assert result == [[i * i for i in range(50)]]


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_ordered_map_of_a_generator_equals_the_comprehension(threads):
    def jittered_cube(i):
        time.sleep(0.0005 * (i % 3))
        return i ** 3

    want = [jittered_cube(i) for i in range(40)]
    assert ordered_map(jittered_cube, (i for i in range(40)), threads) == want
    assert ordered_map(jittered_cube, iter(()), threads) == []


@pytest.mark.parametrize("threads", [1, 3])
def test_ordered_map_iterator_failure_comes_after_earlier_items(threads):
    done = []

    def items(stop):
        yield from range(stop)
        raise RuntimeError("items ran dry")

    def fail_on_one(i):
        if i == 1:
            time.sleep(0.05)   # the iterator raises first in time
            raise ValueError("item 1")
        done.append(i)
        return i

    with pytest.raises(ValueError, match="item 1"):
        ordered_map(fail_on_one, items(3), threads)
    # with no earlier failure, the iterator's own error surfaces, after
    # every item it yielded has run
    done.clear()
    with pytest.raises(RuntimeError, match="ran dry"):
        ordered_map(lambda i: done.append(i), items(4), threads)
    assert sorted(done) == [0, 1, 2, 3]
