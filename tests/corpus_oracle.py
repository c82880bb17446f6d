"""Read-back digest of a corpus directory: what `save_corpus` must return.

`save_corpus` hashes the bytes as it writes them; this reads them back from
the files, so a test can hold the two equal.
"""

import hashlib
from pathlib import Path


def corpus_digest(directory) -> str:
    """sha256 over the names and bytes of every sample record and payload, in name order."""
    digest = hashlib.sha256()
    names = sorted(
        p.name for p in Path(directory).iterdir()
        if p.name.startswith("sample_") and p.name.endswith((".json", ".npy"))
    )
    for name in names:
        digest.update(name.encode())
        digest.update((Path(directory) / name).read_bytes())
    return digest.hexdigest()
