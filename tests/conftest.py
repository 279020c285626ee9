import builtins
import errno
import os

import pytest

from fedaudit import files


class FullDiskFile:
    """An open file that takes half of the first write, then fails as a
    full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def full_disk(monkeypatch):
    """full_disk(name): from then on, writing a file named `name` through
    files.replacing fails partway with ENOSPC; other files are written."""
    def fill(name):
        def fake_open(path, *args, **kwargs):
            fh = builtins.open(path, *args, **kwargs)
            if os.path.basename(path) == f"{name}.tmp":
                return FullDiskFile(fh)
            return fh
        monkeypatch.setattr(files, "open", fake_open, raising=False)
    return fill
