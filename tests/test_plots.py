"""SVG renderers: byte-stable output on fixed inputs."""

import hashlib

from t3s.plots import render_heatmap, render_line_chart


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_heatmap_bytes(tmp_path):
    # a None cell renders gray with a "-" label
    render_heatmap(
        tmp_path / "h.svg",
        ["0.4", "0.6", "0.8"],
        ["0.4", "0.6"],
        [[1.5, None, 2.0], [3.25, 1.0, 0.5]],
        title="theoretical speedup",
        x_label="ratio of trial 2",
        y_label="ratio of trial 1",
    )
    assert _sha256(tmp_path / "h.svg") == (
        "9d3d33eedd314a5e9685640593fc998f141740c5ceb19dcbd29954260c3c2fcf"
    )


def test_line_chart_bytes(tmp_path):
    render_line_chart(
        tmp_path / "l.svg",
        [1.0, 2.0, 3.0, 4.0],
        [0.12, 0.3, 0.25, 0.5],
        title="accuracy vs trials",
        x_label="trials",
        y_label="accuracy",
    )
    assert _sha256(tmp_path / "l.svg") == (
        "4ebcb21c62be70706dfa1330c5a2a492e06e12167af2e027d23375f274ed2bf9"
    )


def test_one_point_line_chart_bytes(tmp_path):
    # one point: no polyline, and a flat y range widened to +-0.5
    render_line_chart(
        tmp_path / "p.svg",
        [5.0],
        [0.25],
        title="accuracy vs top-k",
        x_label="top-k",
        y_label="accuracy",
    )
    assert _sha256(tmp_path / "p.svg") == (
        "694c5e58431ffcd6e6fd8c804c14cbbf35a0530da99e98c7b352f3a508650872"
    )
