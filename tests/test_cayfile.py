import functools
import gc
import re
import tracemalloc

import numpy as np
import pytest

import ncgraph as ng
from ncgraph import cayfile

LOOP5_TEXT = """5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3
"""


class TestRoundTrip:
    @pytest.mark.parametrize("name", [
        "cyclic(7)", "dihedral(6)", "dicyclic(4)", "heisenberg(3,1)",
        "product(dihedral(4),cyclic(3))",
    ])
    def test_format_parse_lossless(self, name):
        g = ng.construct(name)
        back = ng.parse_group(ng.format_group(g), descriptor=name)
        assert np.array_equal(back.table, g.table)
        assert back.descriptor == name

    def test_export_import_files(self, tmp_path):
        g = ng.construct("dicyclic(3)")
        path = tmp_path / "q12.cay"
        ng.export_group(g, str(path))
        back = ng.import_group(str(path))
        assert np.array_equal(back.table, g.table)
        assert back.descriptor == "imported(q12)"

    def test_exported_group_keeps_its_graph(self, tmp_path):
        g = ng.construct("dihedral(8)")
        path = tmp_path / "d16.cay"
        ng.export_group(g, str(path))
        graph = ng.build_nc_graph(ng.import_group(str(path)))
        original = ng.build_nc_graph(g)
        assert graph.vertices == original.vertices
        assert (graph.parent_order, graph.parent_center_size) == (16, 2)
        assert ng.certificate(graph) == ng.certificate(original)

    def test_import_validates_fully(self, tmp_path):
        path = tmp_path / "loop5.cay"
        path.write_text(LOOP5_TEXT)
        with pytest.raises(ng.NotAssociative) as exc:
            ng.import_group(str(path))
        assert exc.value.witness == (1, 1, 2)


class TestParseErrors:
    def test_missing_order_line(self):
        with pytest.raises(ng.CayParseError) as exc:
            ng.parse_group("")
        assert "line 1" in str(exc.value)

    def test_non_integer_order(self):
        with pytest.raises(ng.CayParseError):
            ng.parse_group("three\n0 1\n1 0\n")

    def test_order_below_one(self):
        with pytest.raises(ng.CayParseError):
            ng.parse_group("0\n")

    def test_missing_row(self):
        with pytest.raises(ng.CayParseError) as exc:
            ng.parse_group("3\n0 1 2\n1 2 0\n")
        assert "row" in str(exc.value)

    def test_wrong_token_count(self):
        with pytest.raises(ng.CayParseError) as exc:
            ng.parse_group("2\n0 1\n1\n")
        assert "line 3" in str(exc.value)

    def test_non_integer_entry(self):
        with pytest.raises(ng.CayParseError):
            ng.parse_group("2\n0 1\n1 x\n")

    def test_trailing_garbage(self):
        with pytest.raises(ng.CayParseError):
            ng.parse_group("2\n0 1\n1 0\nextra\n")

    def test_trailing_blank_lines_ok(self):
        g = ng.parse_group("2\n0 1\n1 0\n\n\n")
        assert g.order == 2


def reference_rows(text):
    """The token loop that parse_group ran before its numpy kernel, kept as
    the oracle: the rows of Python ints, or the CayParseError it raised."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ng.CayParseError("line 1: expected the group order")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ng.CayParseError(f"line 1: order is not an integer: {lines[0].strip()!r}")
    if n < 1:
        raise ng.CayParseError(f"line 1: order must be >= 1, got {n}")
    rows = []
    for i in range(n):
        lineno = i + 2
        if i + 1 >= len(lines):
            raise ng.CayParseError(f"line {lineno}: missing row {i} of {n}")
        tokens = lines[i + 1].split()
        if len(tokens) != n:
            raise ng.CayParseError(
                f"line {lineno}: expected {n} entries, found {len(tokens)}"
            )
        row = []
        for j, tok in enumerate(tokens):
            try:
                row.append(int(tok))
            except ValueError:
                raise ng.CayParseError(
                    f"line {lineno}: entry {j} is not an integer: {tok!r}"
                )
        rows.append(row)
    for extra in range(n + 1, len(lines)):
        if lines[extra].strip():
            raise ng.CayParseError(f"line {extra + 1}: unexpected content after the table")
    return rows


@functools.lru_cache(maxsize=None)
def relabeled_text(desc, seed):
    """format_group text of ``desc`` with its elements relabeled, so the
    identity is usually not at index 0."""
    t = ng.construct(desc, max_order=1024).table.astype(np.int64)
    p = np.random.default_rng(seed).permutation(len(t))
    q = np.argsort(p)
    return ng.format_group(ng.CayleyTable(len(t), p[t[np.ix_(q, q)]], desc))


def small_group(n):
    return f"dihedral({n // 2})" if n % 2 == 0 and n >= 6 else f"cyclic({n})"


LAYOUTS = {
    "tabs": lambda ln: ln.replace(" ", "\t"),
    "padded": lambda ln: "  " + ln.replace(" ", " \t ") + " ",
    "unit separators": lambda ln: ln.replace(" ", "\x1f"),
}


def layout_variants(text):
    """The same table written with other separators and line ends, one
    text per layout, then one text that mixes them all row by row."""
    lines = text.splitlines()
    mixed = [*LAYOUTS.values(), str]
    return {
        "format_group": text,
        **{name: "\n".join(map(fn, lines)) + "\n" for name, fn in LAYOUTS.items()},
        "crlf": "\r\n".join(lines) + "\r\n",
        "trailing blank lines": text + "\n \n\t\n\n",
        "mixed": "\r\n".join(mixed[i % len(mixed)](ln) for i, ln in enumerate(lines))
        + "\n\n \n",
    }


def mutate(text, kind, row, rng):
    """``text`` with one defect of ``kind`` in table row ``row``."""
    lines = text.splitlines()
    tokens = lines[row + 1].split()
    j = int(rng.integers(len(tokens)))
    if kind == "drop a token":
        del tokens[j]
    elif kind == "add a token":
        tokens.insert(j, tokens[j])
    elif kind == "insert a letter":
        tok = tokens[j]
        k = int(rng.integers(len(tok) + 1))
        tokens[j] = tok[:k] + "q" + tok[k:]
    elif kind == "move a token":
        # one row short, another long: only the total count stays right
        other = row + 2 if row + 2 < len(lines) else row
        moved = lines[other].split()
        moved.insert(0, tokens.pop(j))
        lines[other] = " ".join(moved)
    elif kind == "remove a row":
        del lines[row + 1]
        return "\n".join(lines) + "\n"
    elif kind == "add trailing content":
        return text + "\n" + " ".join(tokens) + "\n"
    lines[row + 1] = " ".join(tokens)
    return "\n".join(lines) + "\n"


MUTATIONS = ("drop a token", "add a token", "move a token", "insert a letter",
             "remove a row", "add trailing content")


def error_line(exc):
    match = re.match(r"line (\d+): ", str(exc))
    assert match, str(exc)
    return int(match.group(1))


@pytest.fixture
def raw_parse(monkeypatch):
    """parse_group without validate: the int64 table the kernel built."""
    monkeypatch.setattr(cayfile, "validate", lambda table, descriptor=None: table)
    return cayfile.parse_group


class TestKernelOracle:
    """The numpy kernel against the old token loop on the same texts."""

    def assert_same_parse(self, parse, text):
        table = parse(text)
        assert table.dtype == np.int64
        assert np.array_equal(table, np.array(reference_rows(text), dtype=np.int64))

    def assert_same_error(self, parse, text):
        with pytest.raises(ng.CayParseError) as ref:
            reference_rows(text)
        with pytest.raises(ng.CayParseError) as new:
            parse(text)
        assert error_line(new.value) == error_line(ref.value)

    @pytest.mark.parametrize("block_bytes", [None, 256])
    def test_small_tables_in_every_layout(self, raw_parse, monkeypatch, block_bytes):
        # 256-byte blocks cut the larger of these tables into many blocks
        if block_bytes:
            monkeypatch.setattr(cayfile, "_BLOCK_BYTES", block_bytes)
        for n in range(1, 65):
            text = relabeled_text(small_group(n), seed=n)
            for variant in layout_variants(text).values():
                self.assert_same_parse(raw_parse, variant)

    @pytest.mark.parametrize("desc", [
        "heisenberg(3,2)", "dicyclic(64)", "heisenberg(2,4)", "dihedral(512)",
    ])
    def test_large_tables_in_every_layout(self, raw_parse, desc):
        # the mixed text holds every layout, so two texts cover them all at
        # this size (the old loop takes about 0.3 s per order-1024 text)
        variants = layout_variants(relabeled_text(desc, seed=11))
        for name in ("format_group", "mixed"):
            self.assert_same_parse(raw_parse, variants[name])

    @pytest.mark.parametrize("block_bytes", [None, 256])
    def test_mutations_give_the_same_error_line(self, raw_parse, monkeypatch,
                                                block_bytes):
        if block_bytes:
            monkeypatch.setattr(cayfile, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(29)
        for n in (2, 5, 12, 30, 64):
            text = relabeled_text(small_group(n), seed=n)
            for kind in MUTATIONS:
                for _ in range(3):
                    row = int(rng.integers(n))
                    self.assert_same_error(raw_parse, mutate(text, kind, row, rng))

    @pytest.mark.parametrize("kind", ["move a token", "insert a letter"])
    def test_mutation_beyond_the_first_block(self, raw_parse, kind):
        text = relabeled_text("dihedral(512)", seed=3)
        rows = text.splitlines()[1:]
        row = 900
        assert sum(len(r) + 1 for r in rows[:row]) > 2 * cayfile._BLOCK_BYTES
        bad = mutate(text, kind, row, np.random.default_rng(row))
        self.assert_same_error(raw_parse, bad)

    @staticmethod
    def wide_token_text(n, layout):
        """An order-n text whose tokens run through every width from 1 to
        18 digits, leading zeros included, in the given layout."""
        rng = np.random.default_rng(n)
        rows = [" ".join("".join(map(str, rng.integers(10, size=(i * n + j) % 18 + 1)))
                         for j in range(n)) for i in range(n)]
        return "\n".join([str(n), *map(LAYOUTS.get(layout, str), rows)]) + "\n"

    @staticmethod
    def blocks(text):
        """(first, last) table row of each kernel block of ``text``."""
        out, first, size = [], 0, 0
        rows = text.splitlines()[1:]
        for i, row in enumerate(rows):
            size += len(row) + 1
            if size >= cayfile._BLOCK_BYTES or i == len(rows) - 1:
                out.append((first, i))
                first, size = i + 1, 0
        return out

    # 150 rows of about 1.6 kB make two default blocks; 12 rows of about
    # 130 bytes make blocks of two rows at 256 bytes
    @pytest.mark.parametrize("block_bytes, n", [(None, 150), (256, 12)])
    @pytest.mark.parametrize("layout", ["format_group", *LAYOUTS])
    def test_tokens_of_every_width_in_one_block(self, raw_parse, monkeypatch,
                                                block_bytes, n, layout):
        if block_bytes:
            monkeypatch.setattr(cayfile, "_BLOCK_BYTES", block_bytes)
        text = self.wide_token_text(n, layout)
        blocks = self.blocks(text)
        assert len(blocks) >= 2
        first, last = blocks[1]
        widths = {len(tok) for row in text.splitlines()[first + 1:last + 2]
                  for tok in row.split()}
        assert widths == set(range(1, 19))
        self.assert_same_parse(raw_parse, text)
        # a 19-digit token as the first, a middle and the last token of
        # the second block
        for row, j in ((first, 0), ((first + last) // 2, n // 2), (last, n - 1)):
            for tok in ("0" * 10 + "9" * 9, "1" + "0" * 18):
                lines = text.splitlines()
                cells = lines[row + 1].split()
                cells[j] = tok
                lines[row + 1] = LAYOUTS.get(layout, str)(" ".join(cells))
                bad = "\n".join(lines) + "\n"
                assert reference_rows(bad)[row][j] == int(tok)
                with pytest.raises(ng.CayParseError) as exc:
                    raw_parse(bad)
                assert str(exc.value).startswith(
                    f"line {row + 2}: entry {j} has more than 18 digits: "
                )

    @pytest.mark.parametrize("token", ["+3", "1_0", "٣", "-1"])
    def test_tokens_int_accepted_are_rejected(self, raw_parse, token):
        # Python's int() reads each of these, so the old loop passed them
        # on; the .cay grammar is ASCII digits only
        text = "4\n0 1 2 3\n1 2 3 0\n2 3 %s 1\n3 0 1 2\n" % token
        assert reference_rows(text)[2][2] == int(token)
        with pytest.raises(ng.CayParseError) as exc:
            raw_parse(text)
        assert str(exc.value).startswith("line 4: entry 2 ")
        with pytest.raises(ng.CayParseError):
            ng.parse_group(text)


class TestBoundaryErrors:
    def test_overlong_token(self):
        with pytest.raises(ng.CayParseError) as exc:
            ng.parse_group("2\n0 1\n1 99999999999999999999999\n")
        assert str(exc.value).startswith("line 3: entry 1 ")

    def test_eighteen_digit_token_is_read(self, raw_parse):
        table = raw_parse("2\n0 1\n1 999999999999999999\n")
        assert table[1, 1] == 10**18 - 1

    def test_eighteen_digit_token_is_not_closed(self):
        with pytest.raises(ng.NotClosed) as exc:
            ng.parse_group("2\n0 1\n1 999999999999999999\n")
        assert exc.value.witness == (1, 1, 10**18 - 1)

    @pytest.mark.parametrize("head", ["+2", "2.0", "٢", "1_0", "9" * 19])
    def test_order_line_grammar(self, head):
        with pytest.raises(ng.CayParseError) as exc:
            ng.parse_group(f"{head}\n0 1\n1 0\n")
        assert str(exc.value).startswith("line 1: order ")

    def test_non_ascii_separator(self):
        with pytest.raises(ng.CayParseError) as exc:
            ng.parse_group("2\n0 1\n1\u00a00\n")
        assert str(exc.value).startswith("line 3: ")

    def test_import_non_ascii_file(self, tmp_path):
        path = tmp_path / "latin1.cay"
        path.write_bytes(b"2\r\n0 1\r\n1 \xe9\r\n")
        with pytest.raises(ng.CayParseError) as exc:
            ng.import_group(str(path))
        assert str(exc.value).startswith("line 3: ")

    def test_huge_order_with_short_text(self):
        # the table is never allocated for a text too short to hold it
        with pytest.raises(ng.CayParseError) as exc:
            ng.parse_group("999999999999\n0 1\n")
        assert str(exc.value).startswith("line 2: expected 999999999999 entries")


class TestWriter:
    @pytest.mark.parametrize("name", ["cyclic(1)", "dihedral(5)", "heisenberg(3,2)"])
    def test_format_group_bytes(self, name):
        g = ng.construct(name)
        rows = [" ".join(str(int(v)) for v in g.table[i]) for i in range(g.order)]
        assert ng.format_group(g) == "\n".join([str(g.order)] + rows) + "\n"


def corrupted_512(kind):
    """Text of an order-512 table that fails one check of validate."""
    if kind == "NotAssociative":
        # Z/512 with one intercalate {3, 259} x {5, 261} swapped: still a
        # Latin square with identity 0, but no longer associative
        t = np.add.outer(np.arange(512), np.arange(512)) % 512
        t[[3, 259], [5, 261]], t[[3, 259], [261, 5]] = t[3, 261], t[3, 5]
    else:
        t = ng.construct("dihedral(256)").table.astype(np.int64)
        if kind == "NotLatin":
            t[5, 7] = t[5, 8]
        else:
            t[9, 3] = 512
    return "512\n" + "\n".join(" ".join(map(str, row)) for row in t.tolist()) + "\n"


class TestKeptErrors:
    @pytest.mark.parametrize("kind, message, witness", [
        ("NotAssociative", "table(order=512): (2*1)*5 != 2*(1*5)", (2, 1, 5)),
        ("NotLatin", "table(order=512): row 5 repeats value 13 at columns 7 and 8",
         (5, 7, 8)),
        ("NotClosed", "table(order=512): entry 512 at (9, 3) is outside 0..511",
         (9, 3, 512)),
    ])
    def test_a_kept_validation_error_holds_no_table(self, kind, message, witness):
        text = corrupted_512(kind)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(getattr(ng, kind)) as caught:
                ng.parse_group(text)
            kept = caught.value
            del caught
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (str(kept), kept.witness) == (message, witness)
        # the n-by-n arrays of an order-512 parse are 1-2 MB each
        assert retained < 1_000_000
        assert kept.__traceback__ is not None
