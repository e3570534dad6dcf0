"""Unit tests for the append-only content file."""

import pytest

from repro.model.package import make_package
from repro.repository.persistence import ContentFile


def _packages(*names):
    return {
        pkg.blob_key(): pkg
        for pkg in (make_package(name, "1.0", installed_size=100) for name in names)
    }


def test_append_writes_only_new_objects_and_loads_them_back(tmp_path):
    content = ContentFile(tmp_path)
    first = _packages("a", "b")
    assert content.append(first.items()) > 0
    both = {**first, **_packages("c")}
    added = content.append(both.items())
    assert 0 < added < content.length
    # nothing new: no frame
    assert content.append(both.items()) == 0

    loaded, objects = ContentFile.load(tmp_path, 1, content.length)
    assert objects.keys() == both.keys()
    assert all(objects[key] == pkg for key, pkg in both.items())
    assert loaded.sizes == content.sizes
    assert sum(loaded.sizes.values()) + 2 * 8 == content.length


def test_bytes_past_the_committed_length_are_ignored_then_replaced(tmp_path):
    content = ContentFile(tmp_path)
    content.append(_packages("a").items())
    committed = content.length
    # a checkpoint that appended and never committed
    ContentFile(tmp_path, 1, committed).append(_packages("b").items())
    assert content.path.stat().st_size > committed

    reread, objects = ContentFile.load(tmp_path, 1, committed)
    assert objects.keys() == _packages("a").keys()
    reread.append(_packages("c").items())
    _, objects = ContentFile.load(tmp_path, 1, reread.length)
    assert objects.keys() == _packages("a", "c").keys()
    assert content.path.stat().st_size == reread.length


def test_a_failed_write_commits_nothing(tmp_path, monkeypatch):
    content = ContentFile(tmp_path)
    content.append(_packages("a").items())
    length, sizes = content.length, dict(content.sizes)

    def full(*args, **kwargs):
        raise OSError("No space left on device")

    with monkeypatch.context() as mp:
        mp.setattr("builtins.open", full)
        with pytest.raises(OSError):
            content.append(_packages("a", "b").items())
    assert (content.length, content.sizes) == (length, sizes)
    # the retry still writes the object the failed append held
    content.append(_packages("a", "b").items())
    _, objects = ContentFile.load(tmp_path, 1, content.length)
    assert objects.keys() == _packages("a", "b").keys()


def test_compaction_rule(tmp_path):
    content = ContentFile(tmp_path)
    objects = _packages("a", "b", "c")
    content.append(objects.items())
    # smallest entry first: dead bytes pass live bytes as keys die
    keys = sorted(objects, key=content.sizes.__getitem__)
    assert not content.needs_compaction(keys)
    assert not content.needs_compaction(keys[1:])
    assert content.needs_compaction(keys[:1])

    successor = content.rewrite((k, objects[k]) for k in keys[:1])
    assert successor.generation == 2
    assert successor.sizes.keys() == {keys[0]}
    successor.remove_other_generations()
    assert [p.name for p in tmp_path.iterdir()] == ["content-2.bin"]
