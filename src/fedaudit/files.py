"""Output files replaced whole.

Every file fedaudit writes goes through :func:`replacing`: it is written
to a sibling ``<path>.tmp``, which replaces ``path`` only once it is
complete.  An error partway, such as a refused row or a full disk,
leaves any earlier file at ``path`` as it was and no temporary file.
"""

import contextlib
import os


@contextlib.contextmanager
def replacing(path, mode="w", **open_args):
    """Yield `<path>.tmp` opened with open(tmp, mode, **open_args); it
    replaces path when the block ends, and is removed if the block, the
    close or the rename raises."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
