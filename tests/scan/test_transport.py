"""Unit tests for the columnar pool-result transport."""

import ipaddress

import pytest

from repro.dns.resolver import ResolutionStatus
from repro.scan import transport
from repro.scan.observations import IcmpObservation, RdnsObservation
from repro.scan.storage import IcmpColumns, RdnsColumns


def sample_icmp() -> IcmpColumns:
    columns = IcmpColumns()
    for index in range(5):
        columns.append(
            IcmpObservation(
                address=ipaddress.IPv4Address(0x0A000001 + index),
                at=1000 + index,
                network="Academic-A" if index % 2 else "Res-B",
            )
        )
    return columns


def sample_rdns() -> RdnsColumns:
    columns = RdnsColumns()
    statuses = list(ResolutionStatus)
    for index in range(5):
        columns.append(
            RdnsObservation(
                address=ipaddress.IPv4Address(0x0A000001 + index),
                at=2000 + index,
                status=statuses[index % len(statuses)],
                hostname=f"host-{index}.example.net" if index % 2 else "",
                network="Academic-A",
            )
        )
    return columns


class TestPublishConsume:
    def test_round_trip(self):
        blob = b"payload-bytes" * 100
        handle = transport.publish(blob)
        assert handle.size == len(blob)
        assert transport.consume(handle, lambda view: bytes(view)) == blob


class TestDayChunks:
    def test_round_trip_preserves_order(self):
        results = [
            (738156, {"10.0.1.0/24": 3, "10.0.0.0/24": 1}, {"a.ptr", "b.ptr"}),
            (738157, {"10.0.0.0/24": 2, "10.0.2.0/24": 9}, set()),
        ]
        blob = transport.pack_day_chunk(results)
        unpacked = transport.unpack_day_chunk(memoryview(blob))
        assert unpacked == results
        # Dict insertion order — the interning anchor — survives.
        assert list(unpacked[0][1]) == ["10.0.1.0/24", "10.0.0.0/24"]
        assert list(unpacked[1][1]) == ["10.0.0.0/24", "10.0.2.0/24"]

    def test_empty_chunk(self):
        assert transport.unpack_day_chunk(
            memoryview(transport.pack_day_chunk([]))
        ) == []

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            transport.unpack_day_chunk(memoryview(b"nope" + b"\0" * 16))


class TestRecordChunks:
    def test_round_trip(self):
        results = [
            (738156, [(0x0A000001, "a.example"), (0x0A000002, "b.example")]),
            (738157, []),
        ]
        blob = transport.pack_record_chunk(results)
        assert transport.unpack_record_chunk(memoryview(blob)) == results


class TestCampaignColumns:
    def test_icmp_round_trip(self):
        columns = sample_icmp()
        blob = transport.pack_icmp_columns(columns)
        rebuilt = transport.unpack_icmp_columns(memoryview(blob))
        assert rebuilt == columns
        assert rebuilt._networks.values == columns._networks.values

    def test_rdns_round_trip(self):
        columns = sample_rdns()
        blob = transport.pack_rdns_columns(columns)
        rebuilt = transport.unpack_rdns_columns(memoryview(blob))
        assert rebuilt == columns
        assert rebuilt._hostnames.values == columns._hostnames.values

    def test_campaign_pair_round_trip(self):
        icmp, rdns = sample_icmp(), sample_rdns()
        blob = transport.pack_campaign_columns(icmp, rdns)
        icmp2, rdns2 = transport.unpack_campaign_columns(memoryview(blob))
        assert icmp2 == icmp
        assert rdns2 == rdns

    def test_campaign_batch_round_trip(self):
        pairs = [(sample_icmp(), sample_rdns()) for _ in range(3)]
        blob = transport.pack_campaign_batch(pairs)
        rebuilt = transport.unpack_campaign_batch(memoryview(blob))
        assert len(rebuilt) == 3
        for (icmp, rdns), (icmp2, rdns2) in zip(pairs, rebuilt):
            assert icmp2 == icmp
            assert rdns2 == rdns
