"""Property tests of avmir.io drawn by hypothesis, kept apart from
tests/test_io.py so that its other tests run without hypothesis."""

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from avmir import io as avio

from arff_oracle import assert_arff_parity


# spellings float() reads, and a few it rejects
ARFF_SPELLINGS = ["1_0", "+.5e-3", "1.", ".5", "-0", "-0.0", "1E+2", "5e-324",
                  "1e999", "-1e999", "nan", "-NaN", "inf", "-Infinity", "١",
                  "٣.٥", "١_٢", "0x10", "1__0", "_1", "", "1e", "--1", "1 2"]
ARFF_SPACES = ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2003", "\x1c", "\x1f"]
ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

arff_cell = st.tuples(
    st.sampled_from(ARFF_SPACES),
    st.one_of(st.floats().map(repr),
              st.floats(width=32).map(lambda v: f"{v:.9g}"),
              st.floats(allow_nan=False).map(
                  lambda v: repr(v).translate(ARABIC_DIGITS)),
              st.sampled_from(ARFF_SPELLINGS)),
    st.sampled_from(ARFF_SPACES)).map("".join)
arff_label = st.sampled_from(["a", "b", " b\t", "a\xa0", "\x1ca", "z", "A"])
# cells built from digits, signs, ".", "e", "_", spaces, the separators
# U+001C to U+001F that str.strip removes, "nan", "inf" and "0x": laid out
# as a number, or in any order
ARFF_TOKENS = [*"0123456789+-.e_ \t\x1c\x1d\x1e\x1f", "nan", "inf", "0x"]
arff_pad = st.sampled_from(["", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f"])
arff_digits = st.text("0123456789_", max_size=4)
arff_token_cell = st.one_of(
    st.tuples(arff_pad, st.sampled_from(["", "+", "-"]), arff_digits,
              st.sampled_from(["", "."]), arff_digits,
              st.sampled_from(["", "e", "e-", "e+"]), arff_digits,
              arff_pad).map("".join),
    st.tuples(arff_pad, st.sampled_from(["", "+", "-"]),
              st.sampled_from(["nan", "inf", "0x", "0x1f"]),
              arff_pad).map("".join),
    st.lists(st.sampled_from(ARFF_TOKENS), max_size=6).map("".join))


@st.composite
def arff_data(draw):
    n_features = draw(st.integers(0, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "% note", " \x1c "])))
            continue
        count = n_features + {"row": 0, "short": -1, "long": 1}[kind]
        cells = [draw(arff_cell) for _ in range(max(count, 0))]
        lines.append(",".join(cells + [draw(arff_label)]))
    return n_features, lines


class TestArffParity:
    @settings(max_examples=150, deadline=None)
    @given(data=arff_data())
    def test_generated_files_match_reference(self, tmp_path_factory, data):
        assert_arff_parity(tmp_path_factory.mktemp("arff") / "t.arff", *data)

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(arff_token_cell, min_size=1, max_size=6))
    def test_streamed_cells_match_line_parser(self, tmp_path_factory, cells):
        # one cell per row: the streamed parse of each row either gives way
        # to the line parser, without a warning, or reads what it reads, and
        # read_arff reads the whole file as float() does
        lines = [f"{cell},a" for cell in cells]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for line in lines:
                streamed = avio._load_data_block([line], 1, [], 1, ["a"])
                if streamed is not None:
                    matrix, _ = avio._parse_data_rows([line], "t.arff", 1, 1,
                                                      1, ["a"])
                    assert streamed.tobytes() == matrix.tobytes()
            path = tmp_path_factory.mktemp("arff") / "t.arff"
            assert_arff_parity(path, 1, lines)
