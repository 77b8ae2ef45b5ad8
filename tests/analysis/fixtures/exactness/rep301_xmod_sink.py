"""Sink half of the cross-module pair: the float division lives in
``rep301_xmod_helper`` and only becomes a violation here, where the
summary-inferred float reaches this module's @exact field — whether the
helper is imported by name or called as a module attribute."""

import rep301_xmod_helper as helper
from rep301_xmod_helper import mean_rate


class GramAccumulator:
    def __init__(self):
        self._events = 0

    def fold(self, total, count):
        self._events = mean_rate(total, count)  # expect: REP301

    def fold_attribute(self, total, count):
        self._events = helper.mean_rate(total, count)  # expect: REP301


REPRO_SIGNATURES = {"@exact": ["GramAccumulator._events"]}
