"""Machine-speed calibration for the end-to-end timings.

On a shared machine the same code runs at different speeds for tens of
seconds at a time: on a 2-vCPU virtual machine with Python 3.11.7,
`long_doc` ran at 25 documents/s in some 25-second runs and at 33-35 in
others, with CPU time tracking wall time.  A fixed amount of pure-Python work that does not use nlgen,
timed in short blocks between the measured blocks of the same run, slows
and speeds up with the machine.  Scaling each timing by it removes most
of that drift while leaving any change in nlgen's own cost in full.
"""

from __future__ import annotations

import dataclasses
import json
import time

# Units per second that count as reference speed; a normalized timing is
# the time the work would take on a machine running UNIT at this rate.
REFERENCE_UNITS_PER_S = 1500.0


@dataclasses.dataclass(frozen=True)
class _Item:
    key: str
    weight: int
    tags: tuple = ()


def unit() -> int:
    """A fixed piece of the kinds of work nlgen does: frozen dataclass
    construction and replacement, dict and attribute access, isinstance
    checks, string building and a JSON round trip."""
    table: dict[str, int] = {}
    items = []
    for i in range(300):
        item = _Item(f"k{i % 23}", i, ("a", "b") if i % 3 else ())
        if i % 5 == 0:
            item = dataclasses.replace(item, weight=item.weight + 1)
        items.append(item)
        table[item.key] = table.get(item.key, 0) + item.weight
    words = [it.key.upper() for it in items
             if isinstance(it.weight, int) and it.tags]
    text = " ".join(words)
    back = json.loads(json.dumps({"t": table, "n": len(text)},
                                 sort_keys=True))
    return back["n"]


class Calibration:
    """Accumulates calibration blocks over one run."""

    def __init__(self) -> None:
        self.units = 0
        self.wall = 0.0

    def run_for(self, seconds: float) -> float:
        """Run units for ``seconds``; the speed measured over them."""
        units, start = 0, time.perf_counter()
        while True:
            unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.units += units
        self.wall += elapsed
        return units / elapsed / REFERENCE_UNITS_PER_S

    @property
    def speed(self) -> float:
        """Mean machine speed over the run relative to the reference
        (above 1: faster)."""
        return self.units / self.wall / REFERENCE_UNITS_PER_S
