"""ParallelConfig: validation, env switches, backend resolution."""

import pytest

from repro.parallel import (BACKEND_ENV, WORKERS_ENV, ParallelConfig,
                            env_workers)
from repro.shards import DirectoryShardStore, InMemoryShardStore


class TestValidation:
    def test_defaults(self):
        cfg = ParallelConfig()
        assert cfg.workers == 1
        assert cfg.backend == "auto"
        assert cfg.affinity

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"backend": "cuda"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ParallelConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            ParallelConfig().workers = 4


class TestEnv:
    def test_env_workers_unset_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert env_workers() == 1

    @pytest.mark.parametrize("raw,want", [
        ("4", 4), (" 2 ", 2), ("0", 1), ("-3", 1), ("garbage", 1),
        ("", 1),
    ])
    def test_env_workers_parsing(self, monkeypatch, raw, want):
        monkeypatch.setenv(WORKERS_ENV, raw)
        assert env_workers() == want

    def test_from_env_reads_both_vars(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        monkeypatch.setenv(BACKEND_ENV, "thread")
        cfg = ParallelConfig.from_env()
        assert cfg.workers == 3 and cfg.backend == "thread"

    def test_from_env_garbage_backend_is_auto(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        monkeypatch.setenv(BACKEND_ENV, "gpu")
        assert ParallelConfig.from_env().backend == "auto"


class TestCoerce:
    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert ParallelConfig.coerce(None).workers == 5

    def test_int_is_worker_count(self):
        assert ParallelConfig.coerce(4).workers == 4

    def test_config_passes_through(self):
        cfg = ParallelConfig(workers=2)
        assert ParallelConfig.coerce(cfg) is cfg

    @pytest.mark.parametrize("bad", [True, 2.0, "4"])
    def test_rejects_other_types(self, bad):
        with pytest.raises(TypeError):
            ParallelConfig.coerce(bad)


class TestBackendResolution:
    def test_single_worker_is_always_serial(self, tmp_path):
        cfg = ParallelConfig(workers=1, backend="process")
        assert cfg.resolved_backend(
            DirectoryShardStore(tmp_path)) == "serial"

    def test_explicit_backend_wins(self, tmp_path):
        cfg = ParallelConfig(workers=4, backend="thread")
        assert cfg.resolved_backend(
            DirectoryShardStore(tmp_path)) == "thread"

    def test_auto_in_memory_is_thread(self):
        cfg = ParallelConfig(workers=4)
        assert cfg.resolved_backend(InMemoryShardStore()) == "thread"

    def test_auto_directory_prefers_process(self, tmp_path,
                                            monkeypatch):
        from repro.parallel import config as config_mod
        monkeypatch.setattr(config_mod, "_fork_available", lambda: True)
        cfg = ParallelConfig(workers=4)
        assert cfg.resolved_backend(
            DirectoryShardStore(tmp_path)) == "process"
        monkeypatch.setattr(config_mod, "_fork_available",
                            lambda: False)
        assert cfg.resolved_backend(
            DirectoryShardStore(tmp_path)) == "thread"


class TestSliceBudget:
    def test_unbudgeted_stays_unbudgeted(self):
        assert ParallelConfig(workers=4).slice_budget(None) is None

    def test_split_evenly(self):
        assert ParallelConfig(workers=4).slice_budget(1000) == 250

    def test_never_below_one(self):
        assert ParallelConfig(workers=8).slice_budget(3) == 1
