"""Tests for the accounting message channel."""

import numpy as np
import pytest

from repro.vfl import Channel, Message


class TestMessage:
    def test_array_payload_bytes(self):
        msg = Message("a", "b", "hist", np.zeros(10))
        assert msg.nbytes == 80

    def test_dict_payload_bytes(self):
        msg = Message("a", "b", "req", {"rows": np.zeros(4), "k": 1})
        assert msg.nbytes == 4 + 32 + 1 + 8  # keys ("rows", "k") + array + int

    def test_none_payload(self):
        assert Message("a", "b", "ping").nbytes == 0

    def test_scalar_and_string_payloads(self):
        assert Message("a", "b", "x", 3.5).nbytes == 8
        assert Message("a", "b", "x", "abc").nbytes == 3

    def test_nested_list_payload(self):
        assert Message("a", "b", "x", [np.zeros(2), np.zeros(3)]).nbytes == 40


class TestChannel:
    def test_send_receive_fifo(self):
        ch = Channel()
        ch.send(Message("task", "data", "m1", 1))
        ch.send(Message("task", "data", "m2", 2))
        assert ch.receive("data").kind == "m1"
        assert ch.receive("data").kind == "m2"

    def test_kind_mismatch_detected(self):
        ch = Channel()
        ch.send(Message("task", "data", "hist", None))
        with pytest.raises(ValueError, match="desync"):
            ch.receive("data", "split")

    def test_empty_inbox_rejected(self):
        with pytest.raises(ValueError, match="no pending"):
            Channel().receive("data")

    def test_self_send_rejected(self):
        with pytest.raises(ValueError, match="self"):
            Channel().send(Message("task", "task", "x"))

    def test_accounting(self):
        ch = Channel()
        ch.exchange("task", "data", "x", np.zeros(4))
        ch.exchange("data", "task", "y", np.zeros(2))
        stats = ch.stats()
        assert stats["messages"] == 2
        assert stats["bytes"] == 48

    def test_rounds_counted(self):
        ch = Channel()
        ch.next_round()
        ch.next_round()
        assert ch.stats()["rounds"] == 2

    def test_log_disabled_by_default(self):
        ch = Channel()
        ch.exchange("task", "data", "x", 1)
        assert ch.log == []

    def test_log_records_when_enabled(self):
        ch = Channel(keep_log=True)
        ch.exchange("task", "data", "x", np.zeros(2))
        assert ch.log == [("task", "data", "x", 16)]
