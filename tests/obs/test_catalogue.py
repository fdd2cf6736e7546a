"""The metric and trace-event catalogue, checked statically.

Every metric family and trace-event name written as a literal under
``src/`` must appear in ``docs/``, and a family must be declared — given
its help text and label names — in exactly one file, so two declarations
cannot drift apart or double-count.  (The first half of ROADMAP 5(c);
the second half, "every documented name is emitted by a running
cluster", needs a run and is not this test.)

What counts as a literal:

* a *declared* family is the first argument of a ``.counter(...)``,
  ``.gauge(...)`` or ``.histogram(...)`` call, or a key of a
  ``{family: (help, value)}`` table (``SimMetrics.sync_registry``,
  ``FaultInjector.sync_registry``);
* a *read* family is the first argument of a ``.value(...)`` call;
* an *event* is the first argument of an ``.emit(...)`` call, or any
  string constant shaped ``<namespace>.<word>`` whose namespace some
  emitted event uses (the analyzer's and the merger's dispatch keys).
"""

import ast
import collections
import functools
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
EVENT_SHAPE = re.compile(r"[a-z]+\.[a-z_]+")


def _text(node) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_help_row(node) -> bool:
    return (isinstance(node, ast.Tuple) and len(node.elts) == 2
            and _text(node.elts[0]) is not None)


@functools.cache
def _scan():
    """``(declared family -> files, families read, event names)``."""
    declared = collections.defaultdict(set)
    read, emitted, event_shaped = set(), set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        where = str(path.relative_to(ROOT))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if _text(key) is not None and _is_help_row(value):
                        declared[_text(key)].add(where)
            elif _text(node) is not None:
                if EVENT_SHAPE.fullmatch(node.value):
                    event_shaped.add(node.value)
            elif (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and _text(node.args[0]) is not None):
                name = _text(node.args[0])
                if node.func.attr in ("counter", "gauge", "histogram"):
                    declared[name].add(where)
                elif node.func.attr == "value":
                    read.add(name)
                elif node.func.attr == "emit":
                    emitted.add(name)
    namespaces = {name.split(".")[0] for name in emitted}
    events = emitted | {
        name for name in event_shaped if name.split(".")[0] in namespaces
    }
    return declared, read, events


@functools.cache
def _docs() -> str:
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "docs").glob("*.md"))
    )


def test_scan_sees_the_catalogue():
    """The scanner still recognises how this codebase spells things."""
    declared, read, events = _scan()
    assert len(declared) >= 50 and len(events) >= 25
    assert "sim_sessions_total" in declared          # a table key
    assert "reconcile_bytes_total" in declared       # a direct call
    assert "sim_contacts_total" in read
    assert {"session.end", "peer.discovered"} <= events


def test_each_family_is_declared_in_exactly_one_file():
    declared, _, _ = _scan()
    twice = {
        name: sorted(files) for name, files in declared.items()
        if len(files) != 1
    }
    assert twice == {}


def test_every_family_read_is_declared():
    declared, read, _ = _scan()
    assert sorted(read - set(declared)) == []


def test_every_family_is_documented():
    declared, _, _ = _scan()
    assert sorted(name for name in declared if name not in _docs()) == []


def test_every_event_is_documented():
    _, _, events = _scan()
    assert sorted(name for name in events if name not in _docs()) == []
