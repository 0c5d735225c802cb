"""Every hooked write tells the planner that read it first, and no other.

The fabric's walker and each RNIC plan ahead of the clock, and each files a
take-back with the world's ledger (``repro.sim.ledger``): the walker under
its topology, an RNIC under itself.  This test takes every write the
ledger's module docstring lists, registers a spy planner in *every* scope of
a small Clos world, and writes once over a quiet link or a settled RNIC.
Two things must hold:

* the planner owning the device is told, and while it is told, what its
  take-back reads still holds its pre-write value: the written links'
  ``quiet`` flags and delay tables, or the RNIC's ``settled`` flag and
  ``tx_delays``;
* no planner that did not read the device is told, so a take-back never
  gets broader than the device's own scope.

After the write, everything re-derived must equal a fresh derivation.  The
equivalence tests (``tests/net/test_walker_equivalence.py``,
``tests/host/test_host_lookahead_equivalence.py``) show that the real
take-backs then keep lookahead exact.  This test shows that every write
reaches them, in the right order.
"""

import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.cluster import Cluster
from repro.host.rnic import QPType
from repro.net.clos import ClosParams

TOR, AGG = "pod0-tor0", "pod0-agg0"
PORT = "host0-rnic0"          # hangs off TOR
HOST = "host0"                # two RNICs


class _Spy:
    """A planner's stand-in: notes what its take-back would read, when told."""

    def __init__(self, read):
        self.read = read
        self.told = []

    def __call__(self) -> None:
        self.told.append(self.read())


def _link_state(links):
    return [(link.quiet, link.quiet_wait_ns, link.base_delays.fixed_ns,
             link.quiet_delays.fixed_ns) for link in links]


def _rnic_state(rnic):
    return (rnic.operational, rnic.settled, rnic.tx_delays.fixed_ns,
            rnic.tx_delays.rate_gbps)


def _drop_all(five_tuple) -> bool:
    return True


class _Stub:
    """Tracer / INT collector stand-in: no packet runs while one is set."""


def _set(attr, value):
    def write(device, cluster):
        setattr(device, attr, value)
    return write


def _load(device, cluster):
    device.set_offered_load(cluster.sim.now, 1.5 * device.rate_gbps)


def _deny(acl, cluster):
    acl.deny(src_ip="10.9.9.9")


def _remove(acl, cluster):
    acl.remove(acl.deny_rules[0])


def _clear(acl, cluster):
    acl.clear()


def _invalidate(topology, cluster):
    topology.invalidate_routes()


def _destroy(rnic, cluster):
    [qpn] = rnic._qps      # the one _rnic_with_qp allocated
    rnic.destroy_qp(qpn)


def _link(cluster):
    return cluster.topology.link(TOR, AGG)


def _loud_link(cluster):
    link = _link(cluster)
    link.corruption_drop_prob = 0.5
    return link


def _pair(cluster):
    return cluster.topology.link_pair(TOR, AGG)


def _down_pair(cluster):
    pair = _pair(cluster)
    pair.up = False
    return pair


def _switch_acl(cluster):
    return cluster.topology.node(AGG).acl


def _port_acl(cluster):
    # A host port's ACL feeds nothing a packet reads: it lists no in-link,
    # so an edit re-derives nothing and tells nobody, though the link into
    # the port is quiet.
    assert cluster.topology.link(TOR, PORT).quiet
    acl = cluster.topology.node(PORT).acl
    acl.deny(dst_ip="10.9.9.9")
    return acl


def _switch_acl_with_rule(cluster):
    acl = _switch_acl(cluster)
    acl.deny(dst_ip="10.9.9.9")
    return acl


def _rnic(cluster):
    return cluster.rnic(PORT)


def _rnic_with_qp(cluster):
    rnic = _rnic(cluster)
    rnic.allocate_qp(QPType.UD)
    return rnic


# (id, device, write, owner, watched links): ``owner`` is "walker", "rnic"
# (the written RNIC), "host" (every RNIC of HOST) or None (nothing a
# planner can have planned over: the links are not quiet).
LINK_KNOBS = [
    ("corruption_drop_prob", _set("corruption_drop_prob", 0.5)),
    ("silent_drop_predicate", _set("silent_drop_predicate", _drop_all)),
    ("pfc_headroom_ok", _set("pfc_headroom_ok", False)),
    ("pfc_deadlocked", _set("pfc_deadlocked", True)),
    ("pause_delay_ns", _set("pause_delay_ns", 2_000)),
    ("queue_bytes", _set("queue_bytes", 4096.0)),
    ("propagation_ns", _set("propagation_ns", 900)),
    ("offered_load_gbps", _load),
]
RNIC_SETTINGS = [
    ("host", None), ("pcie_gbps", 100.0), ("gid_index_present", False),
    ("routing_configured", False), ("admin_up", False), ("flap_down", True),
    ("tx_corruption_prob", 0.5), ("tracer", _Stub()),
]

CASES = (
    [(f"DirectedLink.{name}", _link, write, "walker", "link")
     for name, write in LINK_KNOBS]
    + [("LinkPair.up", _pair, _set("up", False), "walker", "pair"),
       ("LinkPair.routed_around", _pair, _set("routed_around", True),
        "walker", "pair"),
       ("Acl.deny", _switch_acl, _deny, "walker", "acl"),
       ("Acl.remove", _port_acl, _remove, None, "acl"),
       ("Acl.clear", _port_acl, _clear, None, "acl"),
       ("DirectedLink.pause_delay_ns@loud", _loud_link,
        _set("pause_delay_ns", 2_000), None, "link"),
       ("LinkPair.up@down", _down_pair, _set("up", True), None, "pair"),
       ("Acl.remove@switch", _switch_acl_with_rule, _remove, None, "acl"),
       ("Acl.clear@switch", _switch_acl_with_rule, _clear, None, "acl"),
       ("Topology.invalidate_routes", lambda c: c.topology, _invalidate,
        "walker", "one"),
       ("Fabric.tracer", lambda c: c.fabric, _set("tracer", _Stub()),
        "walker", "one"),
       ("Fabric.int_collector", lambda c: c.fabric,
        _set("int_collector", _Stub()), "walker", "one"),
       ("Fabric.adaptive_routing", lambda c: c.fabric,
        _set("adaptive_routing", True), "walker", "one")]
    + [(f"Rnic.{name}", _rnic, _set(name, value), "rnic", None)
       for name, value in RNIC_SETTINGS]
    + [("Rnic.destroy_qp", _rnic_with_qp, _destroy, "rnic", None),
       ("Host.up", lambda c: c.hosts[HOST], _set("up", False), "host", None)]
)


def _world() -> Cluster:
    return Cluster.clos(ClosParams(pods=1, tors_per_pod=2, aggs_per_pod=2,
                                   spines=1, hosts_per_tor=2,
                                   rnics_per_host=2), seed=11)


def _watched(cluster, device, which):
    if which == "link":
        return [device]
    if which in ("pair", "acl"):
        return list(device.links)
    return [_link(cluster)]


@pytest.mark.parametrize("name, device_of, write, owner, watch", CASES,
                         ids=[case[0] for case in CASES])
def test_owning_planner_told_first_and_alone(name, device_of, write, owner,
                                             watch):
    cluster = _world()
    device = device_of(cluster)
    links = _watched(cluster, device, watch)
    rnics = cluster.all_rnics()
    if owner == "walker":
        assert all(link.quiet for link in links), "a plan needs quiet links"
    if owner in ("rnic", "host"):
        assert all(rnic.settled for rnic in rnics)
    if owner is None:
        assert not any(link.quiet for link in links)

    ledger = cluster.sim.ledger
    walker = _Spy(lambda: _link_state(links))
    ledger.register(cluster.topology, walker)
    spies = {}
    for rnic in rnics:
        spies[rnic.name] = _Spy(lambda rnic=rnic: _rnic_state(rnic))
        ledger.register(rnic, spies[rnic.name])
    link_before = _link_state(links)
    rnic_before = {rnic.name: _rnic_state(rnic) for rnic in rnics}

    write(device, cluster)

    told = {"walker"} if walker.told else set()
    told |= {rnic_name for rnic_name, spy in spies.items() if spy.told}
    if owner == "walker":
        expected = {"walker"}
    elif owner == "rnic":
        expected = {PORT}
    elif owner == "host":
        expected = {rnic.name for rnic in cluster.hosts[HOST].rnics}
        assert len(expected) == 2
    else:
        expected = set()
    assert told == expected
    # Told while the old value stood: what each take-back reads is unwritten.
    assert all(seen == link_before for seen in walker.told)
    for rnic_name in expected - {"walker"}:
        assert all(seen == rnic_before[rnic_name]
                   for seen in spies[rnic_name].told)
    # ... and after the write everything is re-derived.
    after = _link_state(links)
    for link in links:
        link._refresh_quiet()
    assert _link_state(links) == after
    after = {rnic.name: _rnic_state(rnic) for rnic in rnics}
    for rnic in rnics:
        rnic.resettle()
    assert {rnic.name: _rnic_state(rnic) for rnic in rnics} == after


def _hooked_settings() -> set[str]:
    """``Class.setting`` for every property ``hooked`` made in ``repro``."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != info.name:
                continue
            found |= {f"{cls.__name__}.{name}"
                      for name, attr in vars(cls).items()
                      if isinstance(attr, property) and attr.fset is not None
                      and attr.fset.__qualname__ == "hooked.<locals>.write"}
    return found


def test_every_hooked_setting_is_covered():
    """A setting made with ``hooked`` anywhere joins CASES, or this fails
    (an ACL's rules are written through deny / remove / clear)."""
    covered = {case[0] for case in CASES} | {"Acl.deny_rules"}
    found = _hooked_settings()
    assert found <= covered, found - covered
    assert len(found) == 8 + 2 + 1 + 3 + 8 + 1


def test_registrations_survive_a_pickle():
    """The ledger pickles its registrations with the world: a restored
    world's writes reach the restored planners."""
    cluster = pickle.loads(pickle.dumps(_world()))
    spy = _Spy(lambda: None)
    fabric = cluster.fabric
    assert cluster.topology.ledger is cluster.sim.ledger
    assert cluster.sim.ledger._take_backs[cluster.topology] == \
        fabric._demote_in_flight
    for rnic in cluster.all_rnics():
        assert cluster.sim.ledger._take_backs[rnic] == rnic.demote_planned
    cluster.sim.ledger.register(cluster.topology, spy)
    _link(cluster).pfc_deadlocked = True
    assert spy.told == [None]
