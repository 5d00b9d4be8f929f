"""Atomic file replacement for checkpoints, datasets and suite outputs."""

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_path(path):
    """Yield a temporary path beside ``path``; when the block completes the
    file written there replaces ``path`` in one ``os.replace``, and when it
    raises the file is removed, so ``path`` keeps its previous contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    """Replace ``path`` with ``text`` through :func:`atomic_path`."""
    with atomic_path(path) as tmp:
        tmp.write_text(text)
