"""Self-contained SVG drawings: transmit stacks, receiver views, rate atlas.

All styling is inline; one SVG element per drawn block so the output is easy
to diff and post-process.
"""

from __future__ import annotations

from .channel import DIRECT, V_PATH, W_PATH
from .decode import ReceiverView
from .scheme import TWIN_FIRST, TWIN_SECOND, ZERO, AssignmentMatrix

_SYMBOL_FILLS = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
    "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac",
]
_ZERO_FILL = "#d0d0d0"
_PATH_TITLES = {DIRECT: "Direct", V_PATH: "V (up-shifted)", W_PATH: "W (down-shifted)"}


def _escape(text: str) -> str:
    """Escape &, < and > for XML character data (xml.sax.saxutils.escape would
    import urllib, http.client and ssl with it)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fill(symbol_id: int) -> str:
    return _SYMBOL_FILLS[(symbol_id - 1) % len(_SYMBOL_FILLS)]


def _svg_doc(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">'
    )
    return "\n".join([head, *body, "</svg>"])


def _rect(x, y, w, h, fill, extra="") -> str:
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" height="{h:.1f}" '
        f'fill="{fill}" stroke="#333" stroke-width="0.6"{extra}/>'
    )


def _text(x, y, s, extra="") -> str:
    return f'<text x="{x:.1f}" y="{y:.1f}"{extra}>{_escape(s)}</text>'


def _transmit_elems(assign: AssignmentMatrix, x0: float, y0: float, scale: float) -> list[str]:
    width = 90.0
    body = []
    for seg in assign.segments:
        if seg.count == 0:
            continue
        y = y0 + seg.pipe_lo * scale
        h = seg.count * scale
        if seg.role.kind == ZERO:
            body.append(_rect(x0, y, width, h, _ZERO_FILL))
            label = "0"
        else:
            body.append(_rect(x0, y, width, h, _fill(seg.role.symbol_id)))
            label = f"s{seg.role.symbol_id}"
            if seg.role.kind == TWIN_FIRST:
                label += "+"
            elif seg.role.kind == TWIN_SECOND:
                label += "*"
        body.append(_text(x0 + 4, y + min(h, 12), f"{label} ({seg.count})"))
    return body


def render_scheme(view: ReceiverView, title: str) -> str:
    """One document: the transmit stack plus the three receiver path columns.

    All four columns share the receive-level axis; the transmit stack is drawn
    at its direct-path position, data hatched by symbol color, zero blocks
    gray, and twin copies tagged + / *.  Decode step numbers from the view's
    peeling trace annotate each placed block.
    """
    ch = view.params
    assign = view.assign
    scale = max(3.0, 300.0 / (2 * ch.n))
    col_w, gap, x0, y0 = 90.0, 40.0, 200.0, 60.0
    cols = {DIRECT: 0, V_PATH: 1, W_PATH: 2}
    body = [_text(10, 18, title)]
    body.append(_text(60, y0 - 10, "X (sent)"))
    body += _transmit_elems(assign, 60.0, y0 + ch.n * scale, scale)
    for path, idx in cols.items():
        body.append(_text(x0 + idx * (col_w + gap), y0 - 10, _PATH_TITLES[path]))

    step_of_symbol: dict[tuple[int, int], int] = {}
    for k, step in enumerate(view.program.trace.steps, start=1):
        step_of_symbol.setdefault((step.sender, step.symbol_id), k)

    for b in view.blocks:
        x = x0 + cols[b.path] * (col_w + gap)
        y = y0 + (b.level_top - 1) * scale
        h = b.length * scale
        body.append(_rect(x, y, col_w, h, _fill(b.symbol_id)))
        label = f"T{b.sender} s{b.symbol_id}" + ("*" if b.orientation == "reversed" else "")
        body.append(_text(x + 4, y + min(h, 12), label))
        step = step_of_symbol.get((b.sender, b.symbol_id))
        if step is not None:
            body.append(_text(x + col_w - 16, y + min(h, 12), str(step), ' fill="#a00"'))
    for lvl in (1, ch.n, ch.n + 1, 2 * ch.n):
        y = y0 + (lvl - 0.5) * scale
        body.append(_text(10, y + 4, str(lvl)))
    height = int(y0 + 2 * ch.n * scale + 30)
    width = int(x0 + 3 * (col_w + gap) + 20)
    return _svg_doc(width, height, body)


def atlas_csv(rows: list[dict]) -> str:
    lines = ["alpha,beta,region,dsym"]
    for r in rows:
        lines.append(f'{r["alpha"]},{r["beta"]},{r["region"]},{r["dsym"]}')
    return "\n".join(lines) + "\n"


def atlas_svg(rows: list[dict], grid: int) -> str:
    """Heatmap of the rate map over the parameter square; uncovered cells hatched.

    `rows` are `atlas_rows(grid)` in its order: alpha-major, beta-minor."""
    cell = max(6, 480 // grid)
    x0, y0 = 60, 40
    body = [
        '<defs><pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse">'
        '<path d="M0,6 L6,0" stroke="#888" stroke-width="1"/></pattern></defs>',
        _text(10, 18, "symmetric rate per pipe over (alpha, beta)"),
    ]
    for idx, r in enumerate(rows):
        i, j = divmod(idx, grid)
        x = x0 + i * cell
        y = y0 + (grid - 1 - j) * cell
        if not r["dsym"]:
            fill = "url(#hatch)"
            title = f'({r["alpha"]}, {r["beta"]}): uncovered'
        else:
            num, den = map(int, r["dsym"].split("/"))
            shade = 235 - round(num / den * 175)
            fill = f"rgb({shade},{shade},255)"
            title = f'({r["alpha"]}, {r["beta"]}): {r["region"]} rate {r["dsym"]}'
        body.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}" '
            f'stroke="#999" stroke-width="0.4"><title>{_escape(title)}</title></rect>'
        )
    body.append(_text(x0, y0 + grid * cell + 16, "alpha: 1 (left) to 2 (right)"))
    body.append(_text(x0, y0 + grid * cell + 30, "beta: 0 (bottom) to 1 (top)"))
    return _svg_doc(x0 + grid * cell + 40, y0 + grid * cell + 50, body)
