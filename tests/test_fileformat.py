import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccsynth import (
    Alphabet,
    Automaton,
    DuplicateStateId,
    ParseError,
    ValidationError,
    export_dot,
    load_automaton,
    make_automaton,
    parse_automaton,
    save_automaton,
    serialize_automaton,
    sync_product,
    synthesize,
)
from ccsynth.testkit import InstanceSpec, random_instance

from instances import (
    diamond_g,
    diamond_r,
    forked_g,
    forked_r,
    ladder_g,
    ladder_r,
    scanner_g,
    scanner_r,
    scanner_s,
    separator_instance,
    separator_product,
)
from oracles import reference_parse_automaton

SCANNER_FILE = """\
# check-out scanner plant
event start uncontrollable
event scan uncontrollable
event put uncontrollable
event cancel uncontrollable required
event pay uncontrollable
event next

state x0 initial
state x1
state x2
state x3
state x4

trans x0 start x1
trans x1 scan x2
trans x1 scan x3
trans x2 cancel x4
trans x2 put x4
trans x3 put x4
trans x4 pay x0
trans x4 next x1
"""


def test_parse_scanner_file_matches_builder():
    assert parse_automaton(SCANNER_FILE) == scanner_g()


def test_roundtrip_is_canonical_fixed_point():
    worked = [
        scanner_g(),
        scanner_r(),
        scanner_s(),
        scanner_g(()),
        scanner_r(()),
        diamond_g(),
        diamond_r(),
        ladder_g(),
        ladder_r(),
        forked_g(),
        forked_r(),
        sync_product(scanner_s(), scanner_g()),
    ]
    for a in worked:
        text = serialize_automaton(a)
        for parse in (parse_automaton, reference_parse_automaton):
            again = parse(text)
            assert again == a
            assert serialize_automaton(again) == text


def test_serialize_orders_are_deterministic():
    a = scanner_g()
    assert serialize_automaton(a) == serialize_automaton(scanner_g())
    lines = serialize_automaton(a).splitlines()
    assert lines[0] == "event start uncontrollable"
    assert lines[3] == "event cancel uncontrollable required"
    assert "state x0 initial" in lines


def test_serialize_transition_free_automaton():
    from ccsynth import make_automaton

    a = make_automaton(("a",), ("s",), (), ("s",))
    text = serialize_automaton(a)
    assert text == "event a\nstate s initial\n"


# Names that a file line would not read back as one token: an extra
# attribute, a comment, or a missing field.  No automaton holds one, so
# every automaton can be written.
UNWRITABLE = ["a b", "a#b", "#", "a\tb", " a", "a\n", ""]


@pytest.mark.parametrize(
    "what, name", [(what, n) for what in ("event", "state") for n in UNWRITABLE]
)
def test_names_that_would_not_parse_back_are_refused(what, name):
    message = "^" + re.escape(f"{what} name {name!r} is not one file token")
    if what == "event":
        with pytest.raises(ValidationError, match=message):
            Alphabet(("ok", name))
        with pytest.raises(ValidationError, match=message):
            make_automaton(("ok", name), ("s",), (("s", name, "s"),), ("s",))
    else:
        with pytest.raises(ValidationError, match=message):
            make_automaton(("e",), ("s", name), (("s", "e", name),), ("s",))
        with pytest.raises(ValidationError, match=message):
            Automaton.from_table(Alphabet(("e",)), ("s", name), [[(1,), ()]], ("s",))


def test_first_unwritable_name_is_reported():
    with pytest.raises(ValidationError, match="^event name 'f g' "):
        make_automaton(("e", "f g", "h i"), ("s", "t u"), (), ("s",))
    with pytest.raises(ValidationError, match="^state name 't u' "):
        make_automaton(("e",), ("s", "t u", "v w"), (), ("s",))
    # The state names are checked after the structural invariants.
    with pytest.raises(DuplicateStateId):
        make_automaton(("e",), ("t u", "t u"), (), ("t u",))


def test_escaped_ids_round_trip(tmp_path):
    sup = synthesize(*separator_instance()).supervisor.automaton
    prod = sync_product(*separator_product())
    assert "W{x1:z0\\,x1\\:z1}" in sup.states and "(a\\,b,a)" in prod.states
    for a in (sup, prod):
        assert parse_automaton(serialize_automaton(a)) == a
        save_automaton(a, tmp_path / "A.aut")
        assert load_automaton(tmp_path / "A.aut") == a


def test_byte_order_mark_is_skipped_on_load_and_never_written(tmp_path):
    g = scanner_g()
    text = serialize_automaton(g)
    marked = tmp_path / "marked.aut"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_automaton(marked) == g
    save_automaton(load_automaton(marked), tmp_path / "saved.aut")
    assert (tmp_path / "saved.aut").read_bytes() == text.encode()


@pytest.mark.parametrize(
    "data, where",
    [
        (b"event a\nstate s \xff initial\n", (2, 9, 0xFF)),
        (b"\xef\xbb\xbfevent a\r\nstate \xc3", (2, 7, 0xC3)),
        (b"event a\rstate s initial\r\x80", (3, 1, 0x80)),
        ("event \u00e9\u2028\x85state s\x0c".encode() + b"\xed\xa0\x80", (4, 1, 0xED)),
        # Far into the file: the place counts from the file's first byte.
        (b"# pad\n" * 3000 + b"event a \xfe\n", (3001, 9, 0xFE)),
        # A truncated byte-order mark is undecodable, not an empty file.
        (b"\xef", (1, 1, 0xEF)),
        (b"\xef\xbb", (1, 1, 0xEF)),
    ],
)
def test_undecodable_byte_is_a_parse_error_at_its_place(tmp_path, data, where):
    path = tmp_path / "bad.aut"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        load_automaton(path)
    line, col, byte = where
    assert (exc.value.line, exc.value.col) == (line, col)
    assert exc.value.message == f"invalid UTF-8 byte 0x{byte:02x}"


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_roundtrip_on_generated_instances(seed, deterministic):
    g, r = random_instance(
        InstanceSpec(
            g_states=1 + seed % 4,
            r_states=1 + seed % 3,
            events=1 + seed % 3,
            uncontrollable_fraction=(seed % 3) / 2,
            required_fraction=(seed % 4) / 3,
            density=0.35,
            seed=seed,
            deterministic=deterministic,
        )
    )
    for a in (g, r):
        assert parse_automaton(serialize_automaton(a)) == a


def test_shuffled_and_repeated_transitions_parse_to_the_normal_form():
    # The parser fills the successor table line by line; each entry must
    # come out ascending and duplicate-free, as the named constructor
    # normalizes it.
    rng = random.Random(3)
    reordered = 0
    for seed in range(60):
        g, r = random_instance(InstanceSpec(4, 5, 3, density=0.5, seed=seed))
        for a in (g, r):
            lines = serialize_automaton(a).splitlines()
            head = [ln for ln in lines if not ln.startswith("trans")]
            trans = [ln for ln in lines if ln.startswith("trans")]
            shuffled = trans + rng.sample(trans, len(trans) // 3)
            rng.shuffle(shuffled)
            reordered += shuffled != trans
            text = "\n".join(head + shuffled) + "\n"
            got = parse_automaton(text)
            assert got == reference_parse_automaton(text) == a
            assert got.successor_table == a.successor_table
            assert serialize_automaton(got) == serialize_automaton(a)
    assert reordered >= 100


# --- split-based tokenizing against the character tokenizer ----------------

EVENT_NAMES = ("a", "b", "go")
STATE_NAMES = ("s", "t", "x0")
WORDS = (
    EVENT_NAMES
    + STATE_NAMES
    + ("event", "state", "trans", "initial", "required", "uncontrollable")
    + ("flip", "a#b", "#", "\u00e9")
)
# Characters ``isspace`` accepts inside one line, and two that also end
# a line for ``splitlines``.
INLINE_SPACE = (" ", "\t", "\u00a0", "\u2003", "\u3000", "\x1f")
BREAKING_SPACE = ("\x0b", "\x0c")


@st.composite
def automaton_texts(draw):
    """Automaton files: declarations and transitions, mostly valid, plus
    junk lines, odd whitespace, comments and CRLF."""
    spaces = INLINE_SPACE + (BREAKING_SPACE if draw(st.booleans()) else ())
    run = st.text(st.sampled_from(spaces), min_size=1, max_size=3)
    gap = st.one_of(st.just(" "), run)
    edge = st.text(st.sampled_from(spaces), max_size=2)
    comment = st.sampled_from(("", "#", "# note", "#trans s a s", " #\tstate"))

    events = draw(st.lists(st.sampled_from(EVENT_NAMES), min_size=1, unique=True))
    states = draw(st.lists(st.sampled_from(STATE_NAMES), min_size=1, unique=True))
    attrs = st.lists(st.sampled_from(("uncontrollable", "required")), unique=True)
    lines = [["event", ev, *draw(attrs)] for ev in events]
    lines += [["state", s] + ["initial"] * draw(st.booleans()) for s in states]
    for _ in range(draw(st.integers(0, 4))):
        src, ev, dst = (draw(st.sampled_from(n)) for n in (states, events, states))
        lines.append(["trans", src, ev, dst])
    # Junk: a copy of some line, blanked or with one token dropped,
    # inserted or replaced, placed anywhere.
    valid = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        junk = list(draw(st.sampled_from(valid)))
        i = draw(st.integers(0, len(junk) - 1))
        edit = draw(st.sampled_from(("copy", "blank", "drop", "insert", "replace")))
        if edit == "blank":
            junk = []
        elif edit == "drop":
            del junk[i]
        elif edit == "insert":
            junk.insert(i, draw(st.sampled_from(WORDS)))
        elif edit == "replace":
            junk[i] = draw(st.sampled_from(WORDS))
        lines.insert(draw(st.integers(0, len(lines))), junk)

    rendered = []
    for tokens in lines:
        text = draw(edge)
        for i, token in enumerate(tokens):
            text += (draw(gap) if i else "") + token
        rendered.append(text + draw(edge) + draw(comment))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(rendered) + draw(st.sampled_from(("", newline)))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (exc.line, exc.col, exc.message)


def assert_same_parse(text):
    got = parse_outcome(parse_automaton, text)
    want = parse_outcome(reference_parse_automaton, text)
    assert got == want
    if not isinstance(want, tuple):
        assert serialize_automaton(got) == serialize_automaton(want)


@settings(max_examples=400, deadline=None)
@given(automaton_texts())
def test_split_tokenizer_matches_character_tokenizer(text):
    assert_same_parse(text)


@pytest.mark.parametrize(
    "text",
    [
        SCANNER_FILE,
        SCANNER_FILE.replace("\n", "\r\n").replace(" ", "\u3000\t"),
        "event\u00a0a\x0bstate\x0cs initial\ntrans s a s # loop\n",
        "\u2003flip s\n",
        "event a\n  event  # nothing named\n",
        "event a\nstate\t\n",
        "event a\nstate s initial\ntrans s a\n",
        "event a\nstate s initial\ntrans s a s s\n",
        "event a\nstate s initial\ntrans s\u00a0a\u3000t\n",
        "event a\nstate s initial\ntrans  s  b  s\n",
        "event a\nstate s initial\ntrans t a s\n",
        "event a sometimes\n",
        "event a\nstate s\u2003final\n",
        "event a\r\nevent  a\r\n",
        "event a\nstate s initial\n\tstate s\n",
        "event a\nstate s\n",
        "event a\nstate s\n# initial\n",
        "",
    ],
)
def test_split_tokenizer_matches_on_every_error_kind(text):
    assert_same_parse(text)


# --- parse errors ----------------------------------------------------------


def test_unknown_event_in_transition():
    text = "event a\nstate s initial\ntrans s go s\n"
    with pytest.raises(ParseError) as exc:
        parse_automaton(text)
    assert exc.value.line == 3
    assert "go" in exc.value.message


def test_empty_file_reports_missing_initial():
    with pytest.raises(ParseError) as exc:
        parse_automaton("")
    assert "initial" in exc.value.message


def test_no_initial_state_reports_missing_initial():
    with pytest.raises(ParseError) as exc:
        parse_automaton("event a\nstate s\n")
    assert "initial" in exc.value.message


# Every character ``str.splitlines`` ends a line at, and CRLF.
LINE_BREAKS = (
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
)


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_missing_initial_is_reported_past_the_last_line(brk):
    with pytest.raises(ParseError) as exc:
        parse_automaton(f"event a{brk}state x{brk}")
    assert (exc.value.line, exc.value.col) == (3, 1)


def test_duplicate_state_rejected():
    with pytest.raises(ParseError) as exc:
        parse_automaton("event a\nstate s initial\nstate s\n")
    assert exc.value.line == 3


def test_unknown_directive_with_column():
    with pytest.raises(ParseError) as exc:
        parse_automaton("  flip s\n")
    assert (exc.value.line, exc.value.col) == (1, 3)


def test_unknown_state_attribute():
    with pytest.raises(ParseError):
        parse_automaton("event a\nstate s final\n")


def test_comments_and_blank_lines_ignored():
    text = "# header\nevent a  # trailing\n\nstate s initial\ntrans s a s\n"
    a = parse_automaton(text)
    assert a.states == ("s",)
    assert a.transitions == (("s", "a", "s"),)


# --- DOT export -------------------------------------------------------------


def test_dot_marks_initials_and_uncontrollables():
    dot = export_dot(scanner_g())
    assert '"x0" [shape=doublecircle];' in dot
    assert '"x1" [shape=circle];' in dot
    assert '"x0" -> "x1" [label="start" style=dashed];' in dot
    assert '"x4" -> "x1" [label="next"];' in dot


def test_dot_single_state():
    from ccsynth import make_automaton

    dot = export_dot(make_automaton(("a",), ("only",), (), ("only",)))
    assert dot.count("->") == 0
    assert '"only" [shape=doublecircle];' in dot


def test_dot_composite_labels_quoted():
    from ccsynth import sync_product

    prod = sync_product(scanner_s(), scanner_g())
    dot = export_dot(prod)
    assert '"(y2,x3)"' in dot


def test_dot_deterministic():
    assert export_dot(scanner_g()) == export_dot(scanner_g())
