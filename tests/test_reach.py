"""The reach check of ``tests/reach.py``, without its traced runs: how it
reads a source file, that its allow-list names statements of
``src/hamext``, and that it bounds the unreached raise statements."""

import textwrap

import reach

SNIPPET = textwrap.dedent(
    '''\
    def f(x):
        if x:
            raise ValueError(
                "x"
            )
        try:
            y = 1 // x
        except ZeroDivisionError:
            raise
        except TypeError:
            y = 0
            y += 1
        return {
            v
            for v in (y,)
            if v
        }
    '''
)


def test_raises_are_exempt_and_unreached_lines_join_their_statement(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SNIPPET)
    lines, spans = reach.source_lines(path)
    assert sorted(lines) == [1, 2, 3, 4, *range(6, 17)]
    assert {name for name, _, _ in lines.values()} == {"m.f"}
    assert sorted(line for line in lines if lines[line][2]) == [3, 4, 8, 9]
    # all but the first raise, the TypeError clause and the set element
    hit = {1, 2, 6, 7, 8, 9, 13, 15, 16}
    groups = list(reach.unreached_statements(lines, spans, hit))
    assert groups == [[3, 4], [10, 11, 12], [14]]
    assert [lines[g[0]][1] for g in groups] == ["raise ValueError(", "except TypeError:", "v"]


def test_allow_list_is_short_and_names_statements_of_src():
    assert len(reach.ALLOWED) <= 2
    # the unreached raise statements may not grow: a new one needs a
    # test, or an argued edit of this bound
    assert reach.UNREACHED_RAISES <= 37
    found = set()
    for path in sorted(reach.SRC.glob("*.py")):
        lines, _ = reach.source_lines(path)
        found.update((name, text) for name, text, exempt in lines.values() if not exempt)
    for name, text, why in reach.ALLOWED:
        assert (name, text) in found, (name, text)
        assert why.strip()


def test_check_fails_past_the_unreached_raise_bound(monkeypatch, capsys):
    # every line of src reached but the raises'
    reached = {}
    for path in sorted(reach.SRC.glob("*.py")):
        lines, _ = reach.source_lines(path)
        reached[path.name] = {line for line, row in lines.items() if not row[2]}
    message = f"over the {reach.UNREACHED_RAISES} UNREACHED_RAISES allows"
    assert [f for f in reach.check(reached) if message in f]
    monkeypatch.setattr(reach, "UNREACHED_RAISES", 10**6)
    assert not [f for f in reach.check(reached) if "UNREACHED_RAISES" in f]
