"""The CLI's figure writer: byte-stable documents and refused curves."""

import hashlib

import pytest

from hexlat import svg

# sha256 of the document `_eight_curves` renders: any change to the layout,
# the styles, the legend or the number formatting moves it
_EIGHT_CURVES_SHA256 = "0dda6996289fa22c0f0c7cc671c10ebb7ab5d432a5573b8c0f8684c7cc09366c"


def _eight_curves():
    """Seven labelled parabolas, so the six styles wrap, and an unlabelled
    line of half their samples, fourth in turn: its style is used and the
    legend skips it."""
    x = [0.25 * i for i in range(9)]
    out = [(x, [(c - 3) * (t - 1) ** 2 / 4 - c / 8 for t in x], f"curve {c}") for c in range(7)]
    out.insert(3, (x[::2], [1.5 - t for t in x[::2]], ""))
    return out


def test_line_plot_bytes_are_pinned():
    doc = svg.line_plot(_eight_curves(), title="seven curves and one more", xlabel="x", ylabel="y")
    assert doc.count("<polyline") == 8 and doc.count('font-family="sans-serif">curve') == 7
    assert hashlib.sha256(doc.encode()).hexdigest() == _EIGHT_CURVES_SHA256


@pytest.mark.parametrize("curves, message", [
    ([], "need at least one series"),
    ([([0.0, 1.0], [0.0, 1.0], "a"), ([0.0, 1.0, 2.0], [0.0, 1.0], "b")], "matching x/y"),
    ([([0.0, 1.0], [0.0, 1.0], "a"), ([0.5], [0.5], "")], "length >= 2"),
])
def test_line_plot_refuses_bad_curves(curves, message):
    with pytest.raises(ValueError, match=message):
        svg.line_plot(curves)
