"""The per-cell ARFF data-row parser, the oracle of avmir.io.read_arff:
each cell is stripped and read with float()."""

import numpy as np
import pytest

from avmir import io as avio
from avmir.errors import ArffFormatError


def reference_data_rows(data_lines, first_line, n_features, class_values):
    """Reference parser for ARFF data rows: each cell is stripped and read
    with float(), and the checks run in read_arff's order (value count,
    numeric, finite, class).  Returns (matrix, labels) or the first fault
    as (reason, line number)."""
    rows, labels = [], []
    for ln, raw in enumerate(data_lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n_features + 1:
            return f"expected {n_features + 1} values, got {len(cells)}", ln
        try:
            rows.append([float(c) for c in cells[:-1]])
        except ValueError:
            return "non-numeric feature value", ln
        if not np.all(np.isfinite(rows[-1])):
            return "non-finite feature value", ln
        if cells[-1] not in class_values:
            return f"undeclared class value {cells[-1]!r}", ln
        labels.append(cells[-1])
    return np.array(rows, dtype=np.float64).reshape(len(rows), n_features), \
        labels


def assert_arff_parity(path, n_features, data_lines):
    """read_arff and reference_data_rows agree bit for bit on a file with
    n_features numeric attributes, classes a and b, and these data lines."""
    header = (["@RELATION r"]
              + [f"@ATTRIBUTE f{i} NUMERIC" for i in range(n_features)]
              + ["@ATTRIBUTE class {a,b}", "@DATA"])
    path.write_bytes("\n".join(header + data_lines + [""]).encode("utf-8"))
    expected = reference_data_rows(data_lines, len(header) + 1, n_features,
                                   ["a", "b"])
    if isinstance(expected[0], str):
        with pytest.raises(ArffFormatError) as err:
            avio.read_arff(path)
        assert (err.value.reason, err.value.line_number) == expected
        assert str(err.value) == f"{path}: {expected[0]} (line {expected[1]})"
    else:
        back = avio.read_arff(path)
        assert back.matrix.shape == expected[0].shape
        assert back.matrix.tobytes() == expected[0].tobytes()
        assert back.labels == expected[1]
