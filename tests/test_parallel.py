"""The forked, order-preserving map of ``chebsys.parallel``."""

import os
import signal

import pytest

from chebsys import parallel
from chebsys import roots as roots_module
from chebsys.cli import EXIT_NUMERIC, main
from chebsys.errors import ConvergenceFailure, WorkerLost
from chebsys.exactpoly import Poly

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
    reason="the forked map runs inline without fork and CPU affinity",
)


@pytest.fixture
def workers(monkeypatch):
    """Three workers, whatever the machine has, and no minimum cost."""
    monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
    monkeypatch.setattr(parallel, "MIN_COST", 0)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # a live child makes this return (0, 0) and an unreaped one its pid
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    # a deadlocked map fails the test instead of hanging the suite
    def expire(signum, frame):
        raise TimeoutError("fork_map did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_results_come_back_in_input_order(workers):
    items = list(range(40))
    # the cost deals heavy items first, so shares are not index-ordered
    out = parallel.fork_map(lambda x: (x * x, os.getpid()), items, cost=lambda x: (7 * x) % 11)
    assert [value for value, _ in out] == [x * x for x in items]
    assert len({pid for _, pid in out}) == 3
    assert os.getpid() in {pid for _, pid in out}


@pytest.mark.parametrize("bad", [(3, 5), (3, 7), (1, 9)])
def test_the_lowest_failing_index_is_raised_with_its_attributes(workers, bad):
    # without a cost, shares are [0, 3, 6, 9], [2, 5, 8] and the parent's [1, 4, 7]
    def fn(x):
        if x in bad:
            raise ConvergenceFailure(f"stuck at {x} in {os.getpid()}", poly=Poly([x, 1]))
        return x

    with pytest.raises(ConvergenceFailure) as caught:
        parallel.fork_map(fn, range(10))
    first = min(bad)
    assert str(caught.value).startswith(f"stuck at {first} in ")
    assert caught.value.poly == Poly([first, 1])


def test_a_killed_worker_exits_3_with_one_error_line(workers, monkeypatch, tmp_path, capsys):
    parent = os.getpid()
    solve = roots_module.roots_of_t

    def roots_of_t(rec, p, precision=53):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return solve(rec, p, precision)

    monkeypatch.setattr(roots_module, "roots_of_t", roots_of_t)
    argv = ["roots", "--m", "2", "--c", "59/62", "--r-max", "60", "--out", str(tmp_path / "r.json")]
    assert main(argv) == EXIT_NUMERIC == 3
    err = capsys.readouterr().err
    assert err.startswith("chebsys: error: WorkerLost: worker process ")
    assert "killed by signal 9" in err
    assert err.count("\n") == 1


def test_a_lost_worker_is_a_typed_error(workers):
    def fn(x):
        if x == 1:
            os._exit(0)  # ends without sending anything
        return x

    with pytest.raises(WorkerLost, match="exit status 0"):
        parallel.fork_map(fn, range(3))


def test_a_share_larger_than_a_pipe_buffer_does_not_deadlock(workers, deadline):
    out = parallel.fork_map(lambda x: bytes([x]) * (1 << 20), range(7))
    assert [(len(b), b[:1]) for b in out] == [(1 << 20, bytes([x])) for x in range(7)]


def test_runs_inline_with_one_cpu_or_little_work(monkeypatch):
    parent = os.getpid()
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
    assert parallel.fork_map(lambda x: os.getpid(), range(5)) == [parent] * 5
    monkeypatch.setattr(parallel, "cpu_count", lambda: 3)
    cheap = parallel.fork_map(lambda x: os.getpid(), range(5), cost=lambda x: 1)
    assert cheap == [parent] * 5
    assert parallel.fork_map(lambda x: os.getpid(), [0]) == [parent]


def test_a_map_inside_a_map_runs_inline(workers):
    def inner(x):
        pid = os.getpid()
        return all(p == pid for p in parallel.fork_map(lambda y: os.getpid(), range(4)))

    assert parallel.fork_map(inner, range(6)) == [True] * 6
