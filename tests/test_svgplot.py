import hashlib
import os

from fsmac.svgplot import Series, render_plot

# every element a figure can hold: title, axis labels and ticks, labelled and
# bare guides, a closed series, markers beside non-finite points, a legend
SERIES = [
    Series([0.0, 0.0, 0.5, 1.2], [0.0, 0.9, 0.7, 0.0], label="closed", closed=True),
    Series([0.1, 0.4, float("nan"), 0.8, float("inf")], [0.2, 0.5, 0.3, float("-inf"), 0.1],
           label="markers", marker=True),
    Series([0.2, 0.6], [0.6, 0.2]),
]
KEYWORDS = dict(title="every element", xlabel="x label", ylabel="y label",
                vlines=[(0.3, "guide"), (0.9, "")], hlines=[(0.8, "level"), (0.1, "")])


def test_render_plot_returns_text_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    svg = render_plot(SERIES, **KEYWORDS)
    assert isinstance(svg, str) and svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert not os.listdir(tmp_path)


def test_render_plot_bytes_pinned():
    # the bytes render_plot wrote before its elements went through the
    # element helpers; a change to any shipped figure's bytes shows here first
    svg = render_plot(SERIES, **KEYWORDS).encode()
    assert (len(svg), hashlib.sha256(svg).hexdigest()) == (
        3024, "4becbf6a3f2f2e25949086b8db31b2ab1354e5a31ff841e373dfdfc21f5f4cb7")
    # each finite point once in the polyline and once as a marker
    assert svg.count(b"<circle") == 2 and b'points="' in svg
