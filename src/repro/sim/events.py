"""Event queue for the event-triggered execution manager.

The paper's manager (§IV, Fig. 4) "only considers some discretized time
instants following an event-triggered approach".  Three event kinds drive
the simulation:

* ``END_OF_EXECUTION`` — a task finished on an RU;
* ``END_OF_RECONFIGURATION`` — the reconfiguration circuitry finished
  loading a configuration into an RU;
* ``APP_ARRIVAL`` — a new task graph was received (the paper's
  ``new_task_graph`` event).

(The paper's ``reused_task`` event is consumed inline by the dispatch loop:
reuse takes zero time, so it never needs to be scheduled into the future.)

Events are stored as plain ``(time, kind, seq, payload)`` tuples — the
heap entry *is* the event, with no wrapper object and no separate sort
key, so a push is one tuple allocation.  ``seq`` is a monotone insertion
counter, making the total order ``(time, kind, seq)`` fully deterministic:
end-of-execution is processed before end-of-reconfiguration at equal times
so dependency updates precede new dispatch attempts, which matches the
paper's Fig. 4 case ordering.

The queue also enforces the simulation's arrow of time: events may not be
scheduled before time 0, nor before the latest event already popped —
a regression that previously surfaced only deep inside the manager loop.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Any, List, Optional, Tuple

#: One scheduled event: ``(time, kind, seq, payload)``.  ``payload`` is
#: event-kind specific — ``(ru_index, TaskInstance)`` for end-of-execution,
#: ``(ru_index, TaskInstance, controller, latency)`` for
#: end-of-reconfiguration, ``app_index`` for arrivals.
EventTuple = Tuple[int, int, int, Any]


class EventKind(IntEnum):
    """Event kinds; the integer value doubles as same-time priority."""

    END_OF_EXECUTION = 0
    END_OF_RECONFIGURATION = 1
    APP_ARRIVAL = 2


class EventQueue:
    """Deterministic binary-heap event queue over plain tuples.

    The manager's event loop pops ``_heap`` directly and keeps
    ``_last_popped`` current, so a checkpointed queue stays coherent.
    """

    __slots__ = ("_heap", "_seq", "_last_popped")

    def __init__(self) -> None:
        self._heap: List[EventTuple] = []
        self._seq = 0
        self._last_popped = 0

    def push(self, time: int, kind: EventKind, payload: Any) -> EventTuple:
        """Schedule an event; returns the stored tuple.

        Rejects times before 0 and times before the latest popped event —
        simulation time never runs backwards.
        """
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        if time < self._last_popped:
            raise ValueError(
                f"event time {time} is before the last popped event "
                f"({self._last_popped}); simulation time cannot go backwards"
            )
        seq = self._seq
        self._seq = seq + 1
        event = (time, int(kind), seq, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> EventTuple:
        """Remove and return the earliest ``(time, kind, seq, payload)``."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        event = heapq.heappop(self._heap)
        self._last_popped = event[0]
        return event

    def peek(self) -> Optional[EventTuple]:
        """Earliest event without removing it, or ``None`` when empty."""
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
