"""Whole-file publication: the one atomic write behind every store.

File-queue tickets, cell-cache entries and the study store all publish
files that other threads or processes may read at any moment.
:func:`atomic_write` is the single way they do it.
"""

from __future__ import annotations

import os
import tempfile

__all__ = ["TEMP_SUFFIX", "atomic_write"]

#: Suffix of the same-directory temp files :func:`atomic_write` publishes
#: through; debris carrying it marks a write that never completed.
TEMP_SUFFIX = ".part"


def atomic_write(path: str, data: bytes) -> None:
    """Write *data* to *path* via a same-directory temp file + rename.

    ``os.replace`` is atomic within one filesystem, so readers polling
    the directory — and concurrent writers racing on the same path —
    only ever observe a complete file or no file, never a torn write.
    The temp file is not fsynced: a published file survives a process
    crash, not a machine crash.
    """
    handle, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix=TEMP_SUFFIX
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(data)
        os.replace(tmp_path, path)
    # lint: allow[broad-except] -- cleanup-and-reraise: the temp file
    # must be removed even on KeyboardInterrupt, then the raise
    # propagates the original failure untouched
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
