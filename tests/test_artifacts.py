"""``artifacts._parse_input``: one read of an input gives its parse and its
sha256, and every error names the file. Sizes either side of 1 MiB, where the
hash once moved to a helper thread, check that no size takes another path."""

import hashlib

import pytest

import oracles
from storagelab.artifacts import InputError, _parse_input

SIZES = [(1 << 20) - 1, 1 << 20, (1 << 20) + 1]


def _lines(size: int) -> bytes:
    """``size`` bytes of short ASCII lines."""
    return (b"line\n" * (size // 5 + 1))[:size]


@pytest.mark.parametrize("size", SIZES)
def test_digest_is_the_sha256_of_the_file(tmp_path, size):
    path = tmp_path / "input.txt"
    data = _lines(size)
    path.write_bytes(data)
    text, entry = _parse_input(path, lambda fh: fh.read(), None)
    assert text == data.decode()
    assert entry == {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def _raise(error: Exception):
    def parse(fh):
        fh.read()
        raise error
    return parse


@pytest.mark.parametrize("size", SIZES)
def test_errors_name_the_file(tmp_path, size):
    path = tmp_path / "input.txt"

    path.write_bytes(_lines(size - 5) + b"x\xffyz\n")
    assert path.stat().st_size == size
    with pytest.raises(InputError) as bad_byte:
        _parse_input(path, lambda fh: fh.read(), None)
    assert str(bad_byte.value) == str(oracles._not_utf8(path))

    path.write_bytes(_lines(size))
    with pytest.raises(InputError) as bad_line:
        _parse_input(path, _raise(ValueError("line 7: bad field")), None)
    assert str(bad_line.value) == f"{path}: line 7: bad field"

    # Any other error of the parse goes through as it is.
    with pytest.raises(KeyError):
        _parse_input(path, _raise(KeyError("k")), None)
