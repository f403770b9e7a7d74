"""Dependency tracking between observable cells and the subjects reading them.

While a subject (any hashable token standing for a computation) is
active, reads of observable objects are recorded as edges.  Damaging an
object schedules every depending subject for re-evaluation; repair
rounds run until no damage remains, re-recording the dependencies each
subject exhibits on its fresh run.  A subject is re-run without being
forgotten first: its reads are set aside, and only the edges of those
the fresh run does not repeat are dropped afterwards, so an object read
again keeps its set of subjects, and a run that raises keeps the reads
it made and no stale one.  A round re-runs its subjects in a
fixed order (``order_key``, else their text), a lone one directly; a
cycle's warning names its subjects in that order.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from typing import Callable, Dict, Optional, Set


class Graph:
    __slots__ = ("edges_forward", "edges_reverse", "damaged", "active_subject")

    def __init__(self):
        # A first edge makes its set; a later one adds to it.
        self.edges_forward: Dict[object, Set[object]] = defaultdict(set)
        self.edges_reverse: Dict[object, Set[object]] = defaultdict(set)
        self.damaged: Set[object] = set()
        self.active_subject: Optional[object] = None

    def with_subject(self, subject, thunk: Callable):
        """Evaluate ``thunk`` with reads attributed to ``subject``."""
        outer = self.active_subject
        self.active_subject = subject
        try:
            return thunk()
        finally:
            self.active_subject = outer

    def record_observation(self, obj) -> None:
        subject = self.active_subject
        if subject is None:
            return
        self.edges_forward[obj].add(subject)
        self.edges_reverse[subject].add(obj)

    def record_damage(self, obj) -> None:
        self.damaged.add(obj)

    def forget_subject(self, subject) -> None:
        for obj in self.edges_reverse.pop(subject, ()):
            self._drop_edge(obj, subject)

    def _drop_edge(self, obj, subject) -> None:
        subjects = self.edges_forward.get(obj)
        if subjects is not None:
            subjects.discard(subject)
            if not subjects:
                del self.edges_forward[obj]

    def repair_damage(self, evaluate: Callable[[object], None]) -> None:
        """Re-run depending subjects until no new damage appears.

        ``evaluate`` re-runs one subject; its reads are re-recorded under
        that subject.  A subject damaged again after its own repair in
        the same call indicates a dependency cycle and is only warned
        about, not re-run forever.
        """
        repaired: Set[object] = set()
        while self.damaged:
            workset = self.damaged
            self.damaged = set()
            subjects: Set[object] = set()
            for obj in workset:
                subjects.update(self.edges_forward.get(obj, ()))
            again = subjects & repaired
            if again:
                names = [str(s) for s in sorted(again, key=_subject_order)]
                print(f"Cyclic dependencies involving {names}", file=sys.stderr)
                subjects -= again
            repaired |= subjects
            for subject in subjects if len(subjects) < 2 else sorted(subjects, key=_subject_order):
                reads = self.edges_reverse.pop(subject, None)
                outer, self.active_subject = self.active_subject, subject
                try:
                    evaluate(subject)
                finally:
                    self.active_subject = outer
                    if reads:
                        fresh = self.edges_reverse.get(subject, ())
                        for obj in reads:
                            if obj not in fresh:
                                self._drop_edge(obj, subject)


def _subject_order(subject):
    return getattr(subject, "order_key", None) or (1, str(subject))
