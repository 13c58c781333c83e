"""Copies of records with some fields changed, for tests that corrupt a
trace, a witness or a ball."""


def rebuilt(record, **changes):
    """A new record of ``record``'s class, built through its constructor
    from its fields with ``changes`` in place of some of them."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)


def trace_json_obj(trace, **extra):
    """The JSON object of a SequenceTrace, built field by field, with
    the fields of ``extra`` added: the reference its ``to_json`` text is
    compared against."""
    return {
        "descriptor": trace.descriptor,
        "depth": len(trace.blockers),
        "cycles": [list(c.order) for c in trace.cycles],
        "blockers": [sorted(b) for b in trace.blockers],
        "ks": list(trace.ks),
        "k0s": [sorted(p) for p in trace.k0s],
        "witnesses": [[w.to_json_obj() for w in per_i] for per_i in trace.witnesses],
        "end_selectors": {name: list(sel) for name, sel in trace.end_selectors.items()},
        **extra,
    }
