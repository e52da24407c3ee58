"""Record semantics: every exported record class constructs by keyword
and by position, compares and hashes by value, refuses assignment, and
names a bad argument."""

import pytest

import rgc
from rgc._record import record
from rgc.analysis import (compare_designs, exponent_point,
                          exponent_region_membership, realized_point,
                          sweep_tradeoff)
from rgc.codec import DiskShare, MessageVector, ShareSet, encode, repair
from rgc.codespec import CodeSpec
from rgc.construction import verify_S
from rgc.designs import (S_2_3_7, gen_complete_design, gen_steiner_triple,
                         verify_design)
from rgc.storesim import Scenario, ScenarioEvent, run_scenario


def _fields(obj):
    return tuple(type(obj).__annotations__)


def _is_record(obj):
    return getattr(obj.__init__, "__module__", None) == "rgc._record"


@pytest.fixture(scope="module")
def samples(golden_spec, complete9_build):
    """One instance of every exported record class."""
    spec = golden_spec
    msg = MessageVector.random(spec.field.q, spec.params.M, seed=1)
    shares = encode(spec, msg)
    _, transcript = repair(spec, 2, shares.without(2))
    point = exponent_point(64, 2, 1, "1/2")
    scenario = Scenario(events=(ScenarioEvent(kind="fail", node=3),
                                ScenarioEvent(kind="repair", node=3)))
    d9 = gen_steiner_triple(9)
    return [d9, verify_design(d9), spec.field, spec.params, spec,
            spec.layout, complete9_build, verify_S(spec), msg,
            shares.get(1), shares, transcript, realized_point(spec.params),
            sweep_tradeoff(9, 7, 8)[0],
            compare_designs(d9, gen_complete_design(2, 3, 9), 7),
            point, exponent_region_membership(point.Er, point.Ed),
            scenario.events[0], scenario,
            run_scenario(spec, msg, scenario)]


def test_samples_cover_every_exported_record(samples):
    exported = {name for name in rgc.__all__
                if isinstance(getattr(rgc, name), type)
                and _is_record(getattr(rgc, name))}
    assert {type(obj).__name__ for obj in samples} == exported
    assert len(exported) == 20


def test_keyword_and_positional_construction(samples):
    for obj in samples:
        cls, names = type(obj), _fields(obj)
        values = [getattr(obj, f) for f in names]
        by_keyword = cls(**dict(zip(names, values)))
        by_position = cls(*values)
        half = len(names) // 2
        mixed = cls(*values[:half], **dict(zip(names[half:],
                                               values[half:])))
        assert by_keyword == by_position == mixed == obj, cls.__name__


def test_equality_and_hash_by_value(samples):
    for obj, other in zip(samples, samples[1:] + samples[:1]):
        cls, names = type(obj), _fields(obj)
        twin = cls(**{f: getattr(obj, f) for f in names})
        assert twin == obj and not twin != obj
        assert twin is not obj
        # another record class never compares equal
        assert obj != other and not obj == other
        if cls.__name__ == "SimulationReport":
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)     # its ledgers are dicts
        else:
            assert hash(twin) == hash(obj)
            assert {twin: 1}[obj] == 1


def test_assignment_and_deletion_raise(samples):
    for obj in samples:
        name = _fields(obj)[0]
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match="frozen"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match="frozen"):
            delattr(obj, name)
        with pytest.raises(AttributeError, match="frozen"):
            obj.extra = 1
        assert getattr(obj, name) is before


def test_repr_lists_fields_in_order(samples):
    for obj in samples:
        names = _fields(obj)
        want = ", ".join(f"{f}={getattr(obj, f)!r}" for f in names)
        assert repr(obj) == f"{type(obj).__qualname__}({want})"
    assert repr(rgc.PrimeField(7)) == "PrimeField(q=7)"
    assert repr(ScenarioEvent("fail", 2)) == (
        "ScenarioEvent(kind='fail', node=2, disks=None, predicate=None)")


def test_defaults_fill_missing_fields(golden_spec):
    event = ScenarioEvent("read", disks=(1, 2))
    assert (event.node, event.disks, event.predicate) == (None, (1, 2), None)
    spec = golden_spec
    again = CodeSpec(spec.params, spec.field, spec.design, spec.layout,
                     spec.phi)
    assert again.s_entries is None and again == spec


def test_bad_arguments_raise_type_error_naming_them():
    with pytest.raises(TypeError, match="unexpected argument 'r'"):
        rgc.PrimeField(q=7, r=1)
    with pytest.raises(TypeError, match="unexpected argument 'r'"):
        rgc.PrimeField(r=7)     # as many keywords as fields
    with pytest.raises(TypeError, match="multiple values for 'q'"):
        rgc.PrimeField(7, q=7)
    with pytest.raises(TypeError, match="missing argument 'symbols'"):
        DiskShare(disk=1)
    with pytest.raises(TypeError, match="missing argument 'kind'"):
        ScenarioEvent(node=1)
    with pytest.raises(TypeError, match="has 1 fields, got 2 positional"):
        rgc.PrimeField(7, 11)


def test_post_init_still_validates_and_normalizes():
    with pytest.raises(ValueError, match="1-based"):
        DiskShare(disk=0, symbols=())
    with pytest.raises(ValueError, match="not prime"):
        rgc.PrimeField(q=8)
    a, b = DiskShare(disk=3, symbols=()), DiskShare(disk=1, symbols=())
    assert ShareSet(shares=(a, b)).disks() == (1, 3)
    assert ShareSet((a, b)) == ShareSet((b, a))
    shuffled = tuple(block[::-1] for block in S_2_3_7.blocks[::-1])
    design = rgc.BlockDesign(7, 2, 3, 1, shuffled)
    assert design.blocks == S_2_3_7.blocks and design == S_2_3_7


def test_cached_properties_stay_out_of_equality_and_hash(golden_spec):
    text = golden_spec.to_json()
    warm, cold = CodeSpec.from_json(text), CodeSpec.from_json(text)
    cached = (warm.s_rows, warm.short_gen, warm.parity_columns,
              warm.spec_hash, warm.layout.disk_slots(1))
    assert all(cached)
    assert {"s_rows", "short_gen", "spec_hash"} <= set(vars(warm))
    assert "s_rows" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold)
    assert warm.layout == cold.layout
    assert hash(warm.layout) == hash(cold.layout)


def test_record_decorator_on_a_local_class():
    calls = []

    @record
    class Pair:
        a: int
        b: tuple = ()

        def __post_init__(self):
            calls.append(self.a)
            object.__setattr__(self, "b", tuple(sorted(self.b)))

    pair = Pair(2, b=(3, 1))
    assert pair.b == (1, 3) and calls == [2]
    assert Pair(a=2) == Pair(2, ()) != Pair(3)
    assert repr(pair) == f"{Pair.__qualname__}(a=2, b=(1, 3))"
    assert Pair.__init__.__qualname__.endswith("Pair.__init__")
    assert (Pair(1) == (1, ())) is False
