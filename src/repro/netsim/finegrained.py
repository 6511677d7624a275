"""Event-driven, second-resolution simulation of client activity.

The daily-snapshot path in :mod:`repro.netsim.network` is enough for
the longitudinal analyses, but the paper's supplemental measurement
(Section 6) observes *sub-day* dynamics: devices joining, renewing,
releasing or silently leaving, and the DHCP/IPAM machinery adding and
removing PTR records in response.  :class:`NetworkRuntime` drives the
full protocol stack — DHCP client/server, IPAM bridge, reverse zone —
from the same per-device session schedules the snapshot path uses, on a
:class:`~repro.netsim.engine.SimulationEngine`.
"""

from __future__ import annotations

import datetime as dt
import ipaddress
from typing import Dict, List, Optional

from repro.dhcp.client import DhcpClient
from repro.dhcp.pool import AddressPool
from repro.dhcp.server import DhcpServer
from repro.ipam.system import IpamSystem
from repro.netsim.device import Device
from repro.netsim.engine import SimulationEngine
from repro.netsim.network import (
    RESERVED_LOW_ADDRESSES,
    IcmpPolicy,
    Network,
    Subnet,
)
from repro.netsim.simtime import DAY, from_date

DEFAULT_SWEEP_INTERVAL = 300  # expire leases at probe granularity

#: Outcomes of one echo request (:meth:`NetworkRuntime.echo_outcome`).
ECHO_REPLY = 0  # the host answered
ECHO_SILENT = 1  # nothing there (offline, ping-blocking, non-responding)
ECHO_LOST = 2  # the host would answer, but the packet was dropped


class _SubnetRuntime:
    """DHCP server + IPAM bridge for one device-backed subnet."""

    def __init__(self, network: Network, subnet: Subnet):
        self.subnet = subnet
        reserved = list(subnet.prefix)[:RESERVED_LOW_ADDRESSES]
        self.pool = AddressPool(subnet.prefix, reserved=reserved)
        self.server = DhcpServer(
            self.pool,
            server_id=f"dhcp.{network.suffix}",
            lease_time=network.lease_time,
        )
        assert subnet.policy is not None
        # Route PTR writes to the zone actually serving this subnet —
        # a delegated per-/24 child or RFC 2317 classless zone when the
        # network uses those layouts, the apex zone otherwise.  A
        # DISABLED subnet keeps DHCP churning but publishes nothing.
        zone = network.zone_for_subnet(subnet)
        if zone is None:
            self.ipam = None
        else:
            self.ipam = IpamSystem(zone, subnet.policy).attach(self.server)


class NetworkRuntime:
    """Runs one network's client churn on a simulation engine."""

    def __init__(
        self,
        network: Network,
        engine: SimulationEngine,
        *,
        sweep_interval: int = DEFAULT_SWEEP_INTERVAL,
        fault_plan=None,
    ):
        self.network = network
        self.engine = engine
        self.sweep_interval = sweep_interval
        #: Optional :class:`repro.netsim.faults.FaultPlan`; when set,
        #: echo replies are dropped probabilistically (deterministic,
        #: keyed by network/address/time/attempt).
        self.fault_plan = fault_plan
        self._subnets: List[_SubnetRuntime] = [
            _SubnetRuntime(network, subnet) for subnet in network.device_backed_subnets()
        ]
        self._clients: Dict[str, DhcpClient] = {}
        self._online: Dict[ipaddress.IPv4Address, Device] = {}
        self._renew_generation: Dict[str, int] = {}
        self._last_day: Optional[dt.date] = None
        self.joins = 0
        self.leaves = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self, first_day: dt.date, last_day: dt.date) -> None:
        """Schedule the simulation from ``first_day`` through ``last_day``.

        Each midnight generates that day's sessions for every device
        (lazily, to keep the event queue small), and every subnet runs
        a periodic lease-expiry sweep.
        """
        if last_day < first_day:
            raise ValueError("last_day before first_day")
        self._last_day = last_day
        day = first_day
        while day <= last_day:
            self.engine.schedule(max(from_date(day), self.engine.now), self._day_generator(day))
            day += dt.timedelta(days=1)
        end = from_date(last_day) + DAY
        for runtime in self._subnets:
            self._schedule_sweep(runtime, end)

    def _schedule_sweep(self, runtime: _SubnetRuntime, end: int) -> None:
        def sweep() -> None:
            runtime.server.expire_leases(self.engine.now)
            next_at = self.engine.now + self.sweep_interval
            if next_at <= end:
                self.engine.schedule(next_at, sweep)

        self.engine.schedule(self.engine.now + self.sweep_interval, sweep)

    def _day_generator(self, day: dt.date):
        def generate() -> None:
            midnight = from_date(day)
            for runtime in self._subnets:
                factor = self.network.day_factor(day, runtime.subnet)
                for device in runtime.subnet.devices:
                    for session in device.sessions_for_day(day, self.network.rngs, factor):
                        join_at = midnight + session.start
                        leave_at = midnight + session.end
                        if join_at < self.engine.now:
                            continue
                        self.engine.schedule(join_at, self._join_action(runtime, device))
                        if session.end == DAY and self._continues_next_day(runtime, device, day):
                            # Midnight-crossing presence (resident
                            # evenings into morning tails): one
                            # uninterrupted connection, no midnight
                            # release/rebind churn.
                            continue
                        self.engine.schedule(leave_at, self._leave_action(runtime, device))

        return generate

    def _continues_next_day(self, runtime: _SubnetRuntime, device: Device, day: dt.date) -> bool:
        next_day = day + dt.timedelta(days=1)
        if self._last_day is None or next_day > self._last_day:
            return False
        factor = self.network.day_factor(next_day, runtime.subnet)
        sessions = device.sessions_for_day(next_day, self.network.rngs, factor)
        return bool(sessions) and sessions[0].start == 0

    # -- join / renew / leave ----------------------------------------------------

    def _client_for(self, device: Device) -> DhcpClient:
        client = self._clients.get(device.device_id)
        if client is None:
            client = DhcpClient(
                device.device_id,
                host_name=device.host_name(),
                sends_release=device.sends_release,
            )
            self._clients[device.device_id] = client
        return client

    def _join_action(self, runtime: _SubnetRuntime, device: Device):
        def join() -> None:
            client = self._client_for(device)
            if client.address is not None:
                return  # overlapping sessions: already online
            address = client.join(runtime.server, self.engine.now)
            if address is None:
                return  # pool exhausted; device never shows up
            self._online[address] = device
            self.joins += 1
            self._schedule_renewal(runtime, device, client)

        return join

    def _schedule_renewal(self, runtime: _SubnetRuntime, device: Device, client: DhcpClient) -> None:
        interval = runtime.server.lease_time // 2
        generation = self._renew_generation.get(device.device_id, 0) + 1
        self._renew_generation[device.device_id] = generation

        def renew() -> None:
            if self._renew_generation.get(device.device_id) != generation:
                return  # a newer session owns the renewal loop
            if client.address is None or self._online.get(client.address) is not device:
                return  # left the network; stop renewing
            if client.renew(runtime.server, self.engine.now):
                self.engine.schedule(self.engine.now + interval, renew)

        self.engine.schedule(self.engine.now + interval, renew)

    def _leave_action(self, runtime: _SubnetRuntime, device: Device):
        def leave() -> None:
            client = self._clients.get(device.device_id)
            if client is None or client.address is None:
                return
            address = client.address
            client.leave(runtime.server, self.engine.now)
            if self._online.get(address) is device:
                del self._online[address]
            self.leaves += 1

        return leave

    # -- observability -------------------------------------------------------------

    def export_metrics(self, registry) -> None:
        """Publish DHCP totals into a :class:`repro.obs.MetricsRegistry`."""
        registry.counter("dhcp_messages_total").inc(
            sum(runtime.server.messages_processed for runtime in self._subnets)
        )

    def online_addresses(self) -> List[ipaddress.IPv4Address]:
        return list(self._online)

    def is_online(self, address) -> bool:
        return ipaddress.ip_address(address) in self._online

    def device_at(self, address) -> Optional[Device]:
        return self._online.get(ipaddress.ip_address(address))

    def echo_outcome(self, address, at: Optional[int] = None, attempt: int = 0) -> int:
        """What one echo request to ``address`` sees right now.

        Returns :data:`ECHO_REPLY`, :data:`ECHO_SILENT` or — only under
        a fault plan — :data:`ECHO_LOST` (the host is up but this
        particular packet was dropped).  Loss draws are keyed on
        (network, address, time, attempt), so retries at the same
        instant see independent, reproducible outcomes.
        """
        if isinstance(address, ipaddress.IPv4Address):
            ip = address  # hot path: the sweeper probes millions of times
        else:
            ip = ipaddress.ip_address(address)
        if ip in self.network.icmp_allowlist:
            responds = True
        elif self.network.icmp_policy is IcmpPolicy.BLOCK:
            return ECHO_SILENT
        else:
            device = self._online.get(ip)
            responds = device is not None and device.icmp_responds
        if not responds:
            return ECHO_SILENT
        if self.fault_plan is not None:
            when = self.engine.now if at is None else at
            if self.fault_plan.echo_lost(self.network.name, int(ip), when, attempt):
                return ECHO_LOST
        return ECHO_REPLY

    def is_icmp_responsive(self, address, at: Optional[int] = None, attempt: int = 0) -> bool:
        """Would an echo request to ``address`` be answered right now?"""
        return self.echo_outcome(address, at, attempt) == ECHO_REPLY

    def echo_batch(self, addresses) -> List[ipaddress.IPv4Address]:
        """The subset of ``addresses`` (in ascending order) that would
        echo now.  Callers pass sweep segments — dense ascending address
        runs — for which ascending order and input order coincide.

        Only valid when no fault plan is attached: without loss draws an
        echo outcome is a pure function of presence, so a whole sweep
        segment reduces to dict probes with the allowlist and policy
        hoisted out of the loop.  Fault-injected runs must go through
        :meth:`echo_outcome` per address to spend their keyed draws.
        """
        if self.fault_plan is not None:
            raise ValueError("echo_batch requires fault-free runtimes")
        allowlist = self.network.icmp_allowlist
        if self.network.icmp_policy is IcmpPolicy.BLOCK:
            if not allowlist:
                return []
            return [ip for ip in addresses if ip in allowlist]
        online = self._online
        if addresses and int(addresses[-1]) - int(addresses[0]) == len(addresses) - 1:
            # Dense ascending range (every sweep segment is one): invert
            # the scan and walk the online table instead of the address
            # space.  Occupancy is a few percent of a /24 sweep, so this
            # is O(online + allowlist) rather than O(addresses).  Sorting
            # restores ascending order — exactly the order the input
            # (and the per-address loop) produces.
            lo = int(addresses[0])
            hi = int(addresses[-1])
            hits = {
                ip
                for ip, device in online.items()
                if device.icmp_responds and lo <= int(ip) <= hi
            }
            if allowlist:
                hits.update(ip for ip in allowlist if lo <= int(ip) <= hi)
            return sorted(hits)
        if allowlist:
            return [
                ip
                for ip in addresses
                if ip in allowlist
                or ((device := online.get(ip)) is not None and device.icmp_responds)
            ]
        responders: List[ipaddress.IPv4Address] = []
        append = responders.append
        get = online.get
        for ip in addresses:
            device = get(ip)
            if device is not None and device.icmp_responds:
                append(ip)
        return responders


def build_runtimes(
    networks: List[Network],
    engine: SimulationEngine,
    *,
    sweep_interval: int = DEFAULT_SWEEP_INTERVAL,
    fault_plan=None,
) -> Dict[str, NetworkRuntime]:
    """One runtime per network, keyed by network name."""
    return {
        network.name: NetworkRuntime(
            network, engine, sweep_interval=sweep_interval, fault_plan=fault_plan
        )
        for network in networks
    }
