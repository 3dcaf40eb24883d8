"""``artifacts._parse_input``: an input of 1 MiB or more is hashed in a helper
thread while it is decoded. The digest and every error are those of the
inline hash, and the thread is gone when the call returns or raises."""

import hashlib
import threading

import pytest

import oracles
from storagelab.artifacts import _THREADED_HASH_MIN, InputError, _parse_input

SIZES = [_THREADED_HASH_MIN - 1, _THREADED_HASH_MIN, _THREADED_HASH_MIN + 1]


def _lines(size: int) -> bytes:
    """``size`` bytes of short ASCII lines."""
    return (b"line\n" * (size // 5 + 1))[:size]


@pytest.fixture
def started(monkeypatch) -> list[threading.Thread]:
    """The threads started during the test."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


@pytest.mark.parametrize("size", SIZES)
def test_digest_is_the_sha256_of_the_file(tmp_path, started, size):
    path = tmp_path / "input.txt"
    data = _lines(size)
    path.write_bytes(data)
    text, entry = _parse_input(path, lambda fh: fh.read(), None)
    assert text == data.decode()
    assert entry == {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    assert len(started) == (size >= _THREADED_HASH_MIN)
    assert not any(thread.is_alive() for thread in started)


def _raise(error: Exception):
    def parse(fh):
        fh.read()
        raise error
    return parse


@pytest.mark.parametrize("size", SIZES)
def test_errors_are_unchanged_and_leave_no_thread(tmp_path, size):
    path = tmp_path / "input.txt"
    before = threading.active_count()

    path.write_bytes(_lines(size - 5) + b"x\xffyz\n")
    assert path.stat().st_size == size
    with pytest.raises(InputError) as bad_byte:
        _parse_input(path, lambda fh: fh.read(), None)
    assert str(bad_byte.value) == str(oracles._not_utf8(path))
    assert threading.active_count() == before

    path.write_bytes(_lines(size))
    with pytest.raises(InputError) as bad_line:
        _parse_input(path, _raise(ValueError("line 7: bad field")), None)
    assert str(bad_line.value) == f"{path}: line 7: bad field"
    assert threading.active_count() == before

    # Any other error of the parse goes through as it is, after the join.
    with pytest.raises(KeyError):
        _parse_input(path, _raise(KeyError("k")), None)
    assert threading.active_count() == before
