"""RuntimeConfig serialization: the spawn-boundary round-trip.

The multi-process runner ships the parent's config to every rank child
as ``to_dict()`` output and rebuilds it with ``from_dict()``; any drift
(field added on one side only) must fail loudly, because a silently
dropped knob means two processes disagree about segment geometry or
protocol thresholds.
"""

import json
import pickle

import pytest

from repro.config import DEFAULT_CONFIG, RuntimeConfig


class TestRoundtrip:
    def test_default_roundtrips(self):
        assert RuntimeConfig.from_dict(DEFAULT_CONFIG.to_dict()) == DEFAULT_CONFIG

    def test_non_default_fields_survive(self):
        cfg = RuntimeConfig(
            eager_threshold=12345,
            reliability="on",
            rel_rto=0.25,
            ranks_per_node=3,
            procmod_cell_size=8192,
            procmod_num_cells=16,
            procmod_arena_bytes=1 << 20,
            procmod_flush_bytes=4096,
            procmod_reaper_timeout=2.5,
        )
        back = RuntimeConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert back.procmod_cell_size == 8192
        assert back.procmod_reaper_timeout == 2.5

    def test_tuple_fields_become_lists_and_back(self):
        d = DEFAULT_CONFIG.to_dict()
        assert isinstance(d["progress_order"], list)
        back = RuntimeConfig.from_dict(d)
        assert isinstance(back.progress_order, tuple)
        assert back.progress_order == DEFAULT_CONFIG.progress_order

    def test_dict_is_json_compatible_for_common_fields(self):
        d = DEFAULT_CONFIG.to_dict()
        d.pop("fault_plan", None)
        d.pop("fault_link_overrides", None)
        back = RuntimeConfig.from_dict(json.loads(json.dumps(d)))
        assert back.eager_threshold == DEFAULT_CONFIG.eager_threshold

    def test_pickle_roundtrip(self):
        cfg = RuntimeConfig(eager_threshold=777)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestDrift:
    def test_unknown_key_raises(self):
        d = DEFAULT_CONFIG.to_dict()
        d["procmod_warp_drive"] = True
        with pytest.raises(ValueError, match="procmod_warp_drive"):
            RuntimeConfig.from_dict(d)

    def test_deleted_knob_is_drift(self):
        """``shmem_eager_threshold`` was read nowhere and is gone: the
        on-node eager/large boundary is ``eager_threshold``.  A dict
        from a serializer that still ships the key must fail loudly."""
        from dataclasses import fields

        assert len(fields(RuntimeConfig)) == 56
        d = DEFAULT_CONFIG.to_dict()
        assert "shmem_eager_threshold" not in d
        d["shmem_eager_threshold"] = 16384
        with pytest.raises(ValueError, match="shmem_eager_threshold"):
            RuntimeConfig.from_dict(d)
        # ``lockfree`` selected between two endpoint/ring implementations;
        # there is one now.  A parent at an older revision that still
        # ships the key must not silently run a different path.
        d = DEFAULT_CONFIG.to_dict()
        assert "lockfree" not in d
        d["lockfree"] = "on"
        with pytest.raises(ValueError, match="lockfree"):
            RuntimeConfig.from_dict(d)

    def test_missing_keys_take_defaults(self):
        """An older serializer's dict (fewer fields) must still load."""
        back = RuntimeConfig.from_dict({"eager_threshold": 2048})
        assert back.eager_threshold == 2048
        assert back.procmod_cell_size == DEFAULT_CONFIG.procmod_cell_size

    def test_from_dict_validates(self):
        d = DEFAULT_CONFIG.to_dict()
        d["procmod_num_cells"] = 0
        with pytest.raises(ValueError):
            RuntimeConfig.from_dict(d)


class TestProcmodKnobValidation:
    @pytest.mark.parametrize(
        "knob,bad",
        [
            ("procmod_cell_size", 0),
            ("procmod_num_cells", -1),
            ("procmod_arena_bytes", 16),
            ("procmod_flush_bytes", 0),
            ("procmod_reaper_timeout", 0.0),
        ],
    )
    def test_bad_values_rejected(self, knob, bad):
        with pytest.raises(ValueError):
            RuntimeConfig(**{knob: bad}).validate()
