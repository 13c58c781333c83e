"""Copies of records with some fields changed, for tests that corrupt a
trace, a witness or a ball."""


def rebuilt(record, **changes):
    """A new record of ``record``'s class, built through its constructor
    from its fields with ``changes`` in place of some of them."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)
