"""RL003 fixture: all emission through the sink API; reads are free."""


def emit(trace, kind):
    trace.emit(kind, "b1", "a1")


def emit_many(trace, kind, times):
    trace.emit_bulk(kind, times)


def merge(trace, other, kind):
    trace.emit_bulk(kind, other.counts.match)


def report(trace):
    return trace.counts.match + trace.counts.no_match
