"""The state files, sweep checkpoints and the factor cache, go through errors.py.

Both are written by errors.write_state and read by errors.read_state, each
with its own error type, name and key checks.
"""

import os

import pytest

from ffpn import search
from ffpn.errors import CorruptCache
from ffpn.numtheory import FactorCache

# frozen from the checkpoint and cache writers as they were before they
# shared write_state: the shared writer must not change a byte
CHECKPOINT_BYTES = (
    b'{"bad_quadratics": [[1, 2, 3], [4, 0, 6]], "kernel": "radical-residue-1", '
    b'"m": 2, "probes_done": 1234, "q": 9, "sweep_position": 16}'
)
CACHE_BYTES = b'{\n"10": [\n"2",\n"5"\n],\n"26": [\n"2",\n"13"\n]\n}'


def test_state_files_keep_their_bytes(tmp_path):
    ck = str(tmp_path / "ck.json")
    search._write_checkpoint(ck, 9, 2, 16, [(1, 2, 3), (4, 0, 6)], 1234)
    path = str(tmp_path / "cache.json")
    cache = FactorCache(path)
    cache.store(26, [2, 13])
    cache.store(10, [2, 5])
    for name, frozen in ((ck, CHECKPOINT_BYTES), (path, CACHE_BYTES)):
        with open(name, "rb") as fh:
            assert fh.read() == frozen
        assert not os.path.exists(name + ".tmp")
    # and both read back
    assert search._read_checkpoint(ck, 9, 2)["sweep_position"] == 16
    assert FactorCache(path).lookup(26).factors == ((2, 1), (13, 1))


def _read_checkpoint(path):
    return search._read_checkpoint(path, 9, 2)


def _read_cache(path):
    return FactorCache(path).lookup(26)


@pytest.mark.parametrize(
    "read,error,prefix",
    [(_read_checkpoint, ValueError, "checkpoint"), (_read_cache, CorruptCache, "factor cache")],
    ids=["checkpoint", "factor-cache"],
)
def test_state_readers_refuse_alike(tmp_path, read, error, prefix):
    path = tmp_path / "state.json"
    assert read(str(path)) is None  # no file: a fresh sweep, an empty cache
    for content, reason in [
        (b'\xff{"q": 9}', "is not UTF-8"),
        (b'{"q": 9', "is not JSON: "),
        (b"[26, 9]", "is not a JSON object"),
    ]:
        path.write_bytes(content)
        with pytest.raises(error) as exc:
            read(str(path))
        assert str(exc.value).startswith(f"{prefix} {path} {reason}")
        assert path.read_bytes() == content
