"""Tests for repro.io (LinkSet and result persistence)."""

import json
import stat

import numpy as np
import pytest

from repro.core.rle import rle_schedule
from repro.io.linksets import (
    linkset_from_csv,
    linkset_from_json,
    linkset_to_csv,
    linkset_to_json,
)
from repro.io.results import (
    read_json_object,
    schedule_to_dict,
    sweep_to_dict,
    write_json,
    write_json_atomic,
)
from repro.network.links import LinkSet
from repro.network.topology import paper_topology, random_rates_topology


class TestCsvRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        links = random_rates_topology(40, seed=0)
        path = tmp_path / "links.csv"
        linkset_to_csv(links, path)
        back = linkset_from_csv(path)
        np.testing.assert_array_equal(back.senders, links.senders)
        np.testing.assert_array_equal(back.receivers, links.receivers)
        np.testing.assert_array_equal(back.rates, links.rates)

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        linkset_to_csv(LinkSet.empty(), path)
        assert len(linkset_from_csv(path)) == 0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            linkset_from_csv(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sx,sy,rx,ry,rate\n1,2,3\n")
        with pytest.raises(ValueError, match="5 fields"):
            linkset_from_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sx,sy,rx,ry,rate\n1,2,3,4,x\n")
        with pytest.raises(ValueError):
            linkset_from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            linkset_from_csv(path)


class TestJsonRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        links = random_rates_topology(25, seed=1)
        path = tmp_path / "links.json"
        linkset_to_json(links, path)
        back = linkset_from_json(path)
        np.testing.assert_array_equal(back.senders, links.senders)
        np.testing.assert_array_equal(back.rates, links.rates)

    def test_default_rate(self, tmp_path):
        path = tmp_path / "links.json"
        path.write_text(json.dumps({"links": [{"sender": [0, 0], "receiver": [1, 0]}]}))
        back = linkset_from_json(path)
        assert back.rates[0] == 1.0

    def test_missing_links_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="links"):
            linkset_from_json(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"links": [{"sender": [0, 0]}]}))
        with pytest.raises(ValueError, match="malformed"):
            linkset_from_json(path)


class TestResultSerialisation:
    def test_schedule_to_dict_full(self):
        from repro.core.problem import FadingRLS
        from repro.sim.montecarlo import simulate_schedule

        p = FadingRLS(links=paper_topology(30, seed=0))
        s = rle_schedule(p)
        r = simulate_schedule(p, s, n_trials=50, seed=1)
        d = schedule_to_dict(s, p, r)
        assert d["algorithm"] == "rle"
        assert d["feasible"] is True
        assert d["simulation"]["n_trials"] == 50
        # Everything must be JSON-encodable.
        json.dumps(d)

    def test_schedule_to_dict_minimal(self):
        from repro.core.schedule import Schedule

        d = schedule_to_dict(Schedule(active=np.array([1, 2])))
        assert d["size"] == 2 and "feasible" not in d
        json.dumps(d)

    def test_sweep_to_dict(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig6 import throughput_vs_links

        cfg = ExperimentConfig(
            n_links_sweep=(20,), n_repetitions=1, n_trials=20
        )
        sweep = throughput_vs_links(cfg)
        d = sweep_to_dict(sweep)
        assert d["x_values"] == [20.0]
        assert set(d["series"]) == {"ldp", "rle"}
        json.dumps(d)

    def test_write_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"a": 1}, path)
        assert json.loads(path.read_text()) == {"a": 1}


class TestDurableJson:
    """The one durable writer and tolerant reader both stores use.

    A damaged file must read as ``None`` (a store's miss), never crash,
    and a failed write must leave the existing file untouched.
    """

    def test_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "k.json"
        write_json_atomic(path, {"x": 1})
        assert not list(tmp_path.glob("*.tmp"))
        assert read_json_object(path) == {"x": 1}

    def test_bytes_match_write_json_with_mode_0600(self, tmp_path):
        payload = {"b": [1.5, 2], "a": {"z": None}}
        write_json(payload, tmp_path / "plain.json")
        write_json_atomic(tmp_path / "durable.json", payload)
        assert (tmp_path / "durable.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert stat.S_IMODE((tmp_path / "durable.json").stat().st_mode) == 0o600

    def test_missing_file_reads_as_none(self, tmp_path):
        assert read_json_object(tmp_path / "absent.json") is None

    def test_truncated_file_reads_as_none(self, tmp_path):
        path = tmp_path / "k.json"
        write_json_atomic(path, {"value": 42, "pad": list(range(10))})
        full = path.read_text()
        path.write_text(full[: len(full) // 2])  # a write cut mid-payload
        assert read_json_object(path) is None
        write_json_atomic(path, {"value": 42})  # rewriting repairs it
        assert read_json_object(path) == {"value": 42}

    def test_empty_file_reads_as_none(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("")
        assert read_json_object(path) is None

    def test_binary_garbage_reads_as_none(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_bytes(b"\x80\x81\xfe\xff")
        assert read_json_object(path) is None

    def test_non_object_reads_as_none(self, tmp_path):
        path = tmp_path / "k.json"
        for text in ("[1, 2, 3]", '"str"', "42", "null"):
            path.write_text(text)
            assert read_json_object(path) is None

    def test_too_deeply_nested_file_reads_as_none(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("[" * 100_000)
        assert read_json_object(path) is None

    def test_failed_write_leaves_existing_file_untouched(self, tmp_path):
        path = tmp_path / "k.json"
        write_json_atomic(path, {"good": 1})
        with pytest.raises(TypeError):
            write_json_atomic(path, {"bad": object()})
        assert read_json_object(path) == {"good": 1}
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_rename_removes_the_temp_file(self, tmp_path):
        path = tmp_path / "k.json"
        path.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            write_json_atomic(path, {"x": 1})
        assert path.is_dir()
        assert not list(tmp_path.glob(".*.tmp"))
