"""Cases generated from the fault kinds' ``PARAMS`` tables.

For every registered kind and every parameter it lists: the values just
inside each bound build, and the values just outside, NaN, +-inf, a bool
and a wrong-typed value are refused with one "KIND: NAME must be" line,
by ``FaultEvent`` (no world needed) and by the constructor alike.  A new
parameter cannot skip the table: each constructor's keywords are its
``PARAMS`` names.
"""

import inspect
import math
import re
from ipaddress import IPv4Address

import pytest

from repro.fleet.spec import FAULT_KINDS, FaultEvent, validate_campaign_loci
from repro.net.faults import LocusKind, SilentDrop
from repro.serve import parse_fault_spec

LOCI = {LocusKind.LINK: ("pod0-tor0", "pod0-agg0"),
        LocusKind.RNIC: ("host0-rnic0",),
        LocusKind.HOST: ("host0",),
        LocusKind.SWITCH: ("pod0-tor0",)}


def _step(param, value, direction):
    """The next value past ``value`` in ``direction`` (+1 / -1)."""
    if param.type is int:
        return value + direction
    return math.nextafter(value, direction * math.inf)


def inside(param) -> list:
    if param.type is IPv4Address:
        return [None, "10.0.0.1"]
    low_open, high_open = (side in "()" for side in param.bounds)
    return [_step(param, param.low, +1) if low_open else param.low,
            _step(param, param.high, -1) if high_open else param.high]


def outside(param) -> list:
    if param.type is IPv4Address:
        return ["garbage", "10.0.0.256", "10.0.0", 167772161, True]
    low_open, high_open = (side in "()" for side in param.bounds)
    values = [param.low if low_open else _step(param, param.low, -1),
              param.high if high_open else _step(param, param.high, +1),
              math.nan, math.inf, -math.inf, True, "1"]
    if param.type is int:
        values.append(float(inside(param)[0]))
    return values


def _required(cls, but) -> dict:
    return {p.name: inside(p)[0] for p in cls.PARAMS
            if p.required and p.name != but}


def _cases(values):
    return [pytest.param(kind, param, value,
                         id=f"{kind}-{param.name}-{value!r}")
            for kind, cls in sorted(FAULT_KINDS.items())
            for param in cls.PARAMS
            for value in values(param)]


@pytest.mark.parametrize("kind, param, value", _cases(inside))
def test_value_just_inside_builds(tiny_clos, kind, param, value):
    cls = FAULT_KINDS[kind]
    loci = LOCI[cls.locus_kind]
    event = FaultEvent.make(kind, *loci, start_s=1,
                            **_required(cls, param.name),
                            **{param.name: value})
    validate_campaign_loci((event,), tiny_clos)
    assert type(event.build(tiny_clos)) is cls
    cls(tiny_clos, *loci, **event.params_dict())


@pytest.mark.parametrize("kind, param, value", _cases(outside))
def test_value_outside_is_one_must_be_line(tiny_clos, kind, param, value):
    cls = FAULT_KINDS[kind]
    params = {**_required(cls, param.name), param.name: value}
    with pytest.raises(ValueError) as made:
        FaultEvent.make(kind, *LOCI[cls.locus_kind], start_s=1, **params)
    [line] = str(made.value).splitlines()
    assert line.startswith(f"{kind}: {param.name} must be ")
    with pytest.raises(ValueError) as built:
        cls(tiny_clos, *LOCI[cls.locus_kind], **params)
    assert str(built.value) == line


def keywords(cls) -> set:
    """The keywords ``cls(...)`` takes, following a ``**kwargs`` that an
    ``__init__`` passes on to its base's."""
    names = set()
    for klass in cls.__mro__:
        if "__init__" in vars(klass):
            params = inspect.signature(klass.__init__).parameters.values()
            names |= {p.name for p in params if p.kind is p.KEYWORD_ONLY}
            if all(p.kind is not p.VAR_KEYWORD for p in params):
                return names
    raise AssertionError(f"{cls.__name__} passes **kwargs to Fault")


@pytest.mark.parametrize("cls", [*FAULT_KINDS.values(), SilentDrop],
                         ids=lambda cls: cls.__name__)
def test_constructor_keywords_are_the_table(cls):
    assert keywords(cls) == {param.name for param in cls.PARAMS}


def test_params_are_stored_as_given():
    event = FaultEvent.make("pcie_downgrade", "host1-rnic0", start_s=1)
    assert event.params == ()
    event = parse_fault_spec("link_overload@2:a,b:extra_gbps=5")
    assert event.params == (("extra_gbps", 5),)


class TestWindow:
    @pytest.mark.parametrize("start_s, end_s", [
        (math.inf, None), (math.nan, None), (-math.inf, None),
        (1, math.inf), (1, math.nan), (-1, None), (1e300, None),
        (10 ** 400, None), ("1", None), (True, None)])
    def test_non_finite_or_negative_window_refused(self, start_s, end_s):
        with pytest.raises(ValueError, match=r"_s must be a number in "
                                             r"\[0\.0, 1000000000\.0\] s"):
            FaultEvent.make("rnic_down", "host0-rnic0", start_s=start_s,
                            end_s=end_s)

    @pytest.mark.parametrize("spec, field", [
        ("link_corruption@-3:pod0-tor0,pod0-agg0", "start_s"),
        ("link_corruption@x:pod0-tor0,pod0-agg0", "start_s"),
        ("link_corruption@1-y:pod0-tor0,pod0-agg0", "end_s")])
    def test_unparsed_window_names_its_field(self, spec, field):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            parse_fault_spec(spec)


class TestLoci:
    """Loci follow ``locus_kind``; each refusal names the kind."""

    # What a kind needs besides its loci, so that the loci are what fails.
    REQUIRED = {"link_overload": {"extra_gbps": 100.0}}

    @pytest.mark.parametrize("kind, loci, why", [
        ("rnic_down", ("pod0-tor0",), "unknown loci ['pod0-tor0']"),
        ("rnic_down", ("host0",), "it takes one RNIC"),
        ("host_down", ("host0-rnic0",), "it takes one host"),
        ("switch_acl_error", ("host0-rnic0",), "it takes one switch"),
        ("rnic_down", ("host0-rnic0", "host1-rnic0"), "takes one RNIC"),
        ("pfc_deadlock", ("pod0-tor0",), "takes two cabled nodes"),
        ("pfc_deadlock", ("pod0-tor0", "pod0-tor1"), "no cable joins"),
        ("link_overload", ("host0-rnic0", "spine0"), "no cable joins"),
        ("control_plane_partition", ("host0",),
         "it takes one management endpoint"),
    ])
    def test_wrong_locus_refused(self, tiny_clos, kind, loci, why):
        # A wrong number of loci is refused when the event is made, a locus
        # the world lacks when it meets the world: one message either way.
        with pytest.raises(ValueError, match=f"campaign event '{kind}'.*"
                                             + re.escape(why)):
            event = FaultEvent.make(kind, *loci, start_s=1,
                                    **self.REQUIRED.get(kind, {}))
            validate_campaign_loci((event,), tiny_clos)

    def test_unknown_keyword_names_the_real_ones(self):
        with pytest.raises(ValueError, match="campaign event "
                           "'pcie_downgrade' has no parameter 'pause_ns' "
                           r"\(it takes degraded_pcie_gbps, "
                           r"pause_delay_ns\)"):
            FaultEvent.make("pcie_downgrade", "host0-rnic0", start_s=1,
                            pause_ns=5)

    def test_missing_required_keyword_refused(self):
        with pytest.raises(ValueError, match="campaign event "
                           "'link_overload' needs parameter 'extra_gbps'"):
            FaultEvent.make("link_overload", "pod0-tor0", "pod0-agg0",
                            start_s=1)
