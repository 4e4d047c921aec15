"""Hostile-artifact tests: every loader must fail loudly, not weirdly.

For each persisted artifact kind (histogram, N-MCM/L-MCM stats, M-tree,
vp-tree) the loaders face: an empty file, truncated JSON, a wrong format
version, and a flipped bit — and must raise the matching
:class:`MetricostError` subclass every time.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DistanceHistogram, NodeStat
from repro.exceptions import (
    CorruptedDataError,
    FormatVersionError,
    MetricostError,
)
from repro.metrics import L2
from repro.mtree import NodeLayout, bulk_load
from repro.persistence import (
    _save_artifact,
    histogram_to_dict,
    load_histogram,
    load_mtree,
    load_stats,
    mtree_to_dict,
    save_histogram,
    save_mtree,
    save_stats,
    stats_to_dict,
)
from repro.reliability.doctor import flip_body_bit


def _sample_tree():
    rng = np.random.default_rng(0)
    points = rng.random((60, 3))
    layout = NodeLayout(node_size_bytes=256, object_bytes=12)
    return bulk_load(points, L2(), layout, seed=1)


# (name, save(path), load(path), payload_dict()) per artifact kind.
ARTIFACTS = [
    (
        "histogram",
        lambda path: save_histogram(DistanceHistogram.uniform(32, 1.0), path),
        load_histogram,
        lambda: histogram_to_dict(DistanceHistogram.uniform(32, 1.0)),
    ),
    (
        "stats",
        lambda path: save_stats(
            path,
            node_stats=[NodeStat(radius=0.5, n_entries=3, level=1)],
            n_objects=10,
        ),
        load_stats,
        lambda: stats_to_dict(
            node_stats=[NodeStat(radius=0.5, n_entries=3, level=1)]
        ),
    ),
    (
        "mtree",
        lambda path: save_mtree(_sample_tree(), path),
        lambda path: load_mtree(path, L2()),
        lambda: mtree_to_dict(_sample_tree()),
    ),
]

IDS = [name for name, _s, _l, _p in ARTIFACTS]


@pytest.mark.parametrize("name,save,load,payload", ARTIFACTS, ids=IDS)
class TestHostileArtifacts:
    def test_empty_file(self, tmp_path, name, save, load, payload):
        path = tmp_path / f"{name}.json"
        path.write_text("")
        with pytest.raises(CorruptedDataError):
            load(path)

    def test_truncated_json(self, tmp_path, name, save, load, payload):
        path = tmp_path / f"{name}.json"
        save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 3])
        with pytest.raises(CorruptedDataError):
            load(path)

    def test_flipped_bit(self, tmp_path, name, save, load, payload):
        path = tmp_path / f"{name}.json"
        save(path)
        flip_body_bit(path)
        with pytest.raises(CorruptedDataError) as excinfo:
            load(path)
        assert "checksum" in str(excinfo.value) or "crc32" in str(
            excinfo.value
        )

    def test_wrong_version(self, tmp_path, name, save, load, payload):
        doc = payload()
        doc["version"] = 999
        path = tmp_path / f"{name}.json"
        _save_artifact(doc, path)
        with pytest.raises(FormatVersionError) as excinfo:
            load(path)
        assert "expected version 1" in str(excinfo.value)
        assert "999" in str(excinfo.value)

    def test_missing_version_rejected(self, tmp_path, name, save, load, payload):
        doc = payload()
        del doc["version"]
        path = tmp_path / f"{name}.json"
        _save_artifact(doc, path)
        with pytest.raises(FormatVersionError):
            load(path)

    def test_all_failures_are_metricost_errors(
        self, tmp_path, name, save, load, payload
    ):
        """Callers can catch the whole hostile zoo with one except clause."""
        path = tmp_path / f"{name}.json"
        path.write_text("{\"kind\": 42}")
        with pytest.raises(MetricostError):
            load(path)


class TestAtomicSaves:
    def test_no_temp_residue(self, tmp_path):
        save_histogram(DistanceHistogram.uniform(16, 1.0), tmp_path / "h.json")
        assert [p.name for p in tmp_path.iterdir()] == ["h.json"]

    def test_failed_save_preserves_old_artifact(self, tmp_path):
        """A save that dies mid-serialisation must leave the previous
        artifact intact (write-to-temp + rename, never in-place)."""
        path = tmp_path / "h.json"
        original = DistanceHistogram.uniform(16, 1.0)
        save_histogram(original, path)
        before = path.read_text()

        class Explosive:
            """Payload whose encoding raises partway through a save."""

        with pytest.raises(Exception):
            save_mtree(_sample_tree(), path, encode=lambda obj: Explosive())
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["h.json"]

    def test_legacy_unchecksummed_artifact_still_loads(self, tmp_path):
        """Pre-reliability files (raw payload JSON) remain readable."""
        hist = DistanceHistogram.uniform(16, 1.0)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(histogram_to_dict(hist)))
        clone = load_histogram(path)
        np.testing.assert_allclose(clone.bin_probs, hist.bin_probs)
