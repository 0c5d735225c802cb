"""A checkpoint's pickled shape is pinned beside its ``FORMAT``.

``FORMAT`` must move whenever a pickled world of the old code would restore
but run differently under the new one, and every such change so far has
also changed the *shape* of something pickled: a slot, a dataclass field or
an instance attribute added, dropped or renamed.  This test pickles a TINY
:class:`~repro.serve.session.ServeSession` mid-run through a ``Pickler``
that records every ``repro.*`` class it meets, with its slot, field and
``__dict__`` key sets, and compares a digest of each class's shape with
``checkpoint_shape.json``.  A shape change without a ``FORMAT`` bump fails
and names the classes that moved.

After bumping ``FORMAT``, re-pin with::

    PYTHONPATH=src python tests/serve/test_checkpoint_shape.py
"""

import enum
import hashlib
import io
import json
import pickle
from pathlib import Path

from repro.serve import ServeSession, ServeSpec
from repro.serve.checkpoint import FORMAT

PIN = Path(__file__).with_name("checkpoint_shape.json")


class _ShapeRecorder(pickle.Pickler):
    """Pickles to nowhere, noting the shape of every repro class met."""

    def __init__(self):
        super().__init__(io.BytesIO(), pickle.HIGHEST_PROTOCOL)
        # class name -> (slots, dataclass/namedtuple fields, __dict__ keys)
        self.shapes: dict[str, tuple[set, set, set]] = {}

    def reducer_override(self, obj):
        cls = type(obj)
        # Enum members pickle by name, whatever their internals.
        if cls.__module__.startswith("repro.") \
                and not isinstance(obj, enum.Enum):
            name = f"{cls.__module__}.{cls.__qualname__}"
            shape = self.shapes.get(name)
            if shape is None:
                slots = set()
                for klass in cls.__mro__:
                    declared = klass.__dict__.get("__slots__", ())
                    slots.update((declared,) if isinstance(declared, str)
                                 else declared)
                fields = set(getattr(cls, "__dataclass_fields__", None)
                             or getattr(cls, "_fields", ()))
                shape = self.shapes[name] = (slots, fields, set())
            shape[2].update(getattr(obj, "__dict__", ()))
        return NotImplemented


def session_shapes() -> dict[str, str]:
    """class name -> short digest of its pickled shape, for a TINY session."""
    session = ServeSession(ServeSpec(seed=1))
    for _ in range(3):
        session.tick()
    recorder = _ShapeRecorder()
    recorder.dump(session)
    return {name: hashlib.sha256(json.dumps(
                [sorted(part) for part in shape]).encode()).hexdigest()[:12]
            for name, shape in sorted(recorder.shapes.items())}


def test_pickled_shapes_match_the_pin_for_this_format():
    pin = json.loads(PIN.read_text())
    shapes = session_shapes()
    moved = sorted(name for name in shapes.keys() | pin["classes"].keys()
                   if shapes.get(name) != pin["classes"].get(name))
    assert pin["format"] == FORMAT, (
        f"FORMAT is {FORMAT} but {PIN.name} was pinned at "
        f"{pin['format']}: re-pin (see this module's docstring)")
    assert not moved, (
        f"pickled shape moved without a FORMAT bump (still {FORMAT}): "
        f"{', '.join(moved)}")


if __name__ == "__main__":
    PIN.write_text(json.dumps({"format": FORMAT,
                               "classes": session_shapes()},
                              indent=1, sort_keys=True) + "\n")
    print(f"pinned {PIN.name} at FORMAT {FORMAT}")
