"""Terminal and HTML rendering of a performance-attribution analysis.

The text report is what ``repro explain`` prints; the HTML report is a
single self-contained file (embedded JSON + inline JS/CSS, no external
fetches) with a canvas timeline, the critical path overlaid, layer bars,
and the audit table — suitable for attaching to a CI failure.
"""

from __future__ import annotations

import json

from repro.perf.attribution import LAYERS, Attribution, classify
from repro.perf.audit import RooflineAudit
from repro.perf.diff import TraceDiff
from repro.runtime.tracing import Trace
from repro.util.units import fmt_time


def text_report(
    attribution: Attribution,
    audit: RooflineAudit | None = None,
    trace_diff: TraceDiff | None = None,
    title: str = "",
) -> str:
    """The terminal report: attribution, then audit, then diff."""
    parts: list[str] = []
    if title:
        parts.append(f"== {title} ==")
    parts.append(attribution.summary())
    if audit is not None and (audit.entries or audit.comm_entries):
        parts.append("")
        parts.append(audit.summary())
    if trace_diff is not None:
        parts.append("")
        parts.append(trace_diff.summary())
    return "\n".join(parts)


#: Stable layer colors shared by the bars and the timeline legend, in
#: :data:`~repro.perf.attribution.LAYERS` order.
_LAYER_COLORS = dict(zip(LAYERS, (
    "#eeca3b", "#9d9d9d", "#d8b5a5", "#b279a2", "#e45756", "#f58518",
    "#9ecae9", "#4c78a8", "#54a24b", "#72b7b2", "#ff9da6", "#e7e7e7",
)))

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro explain — __TITLE__</title>
<style>
body { font: 13px/1.45 system-ui, sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
.bar { display: flex; height: 22px; border: 1px solid #ccc;
       border-radius: 3px; overflow: hidden; max-width: 860px; }
.bar div { height: 100%; }
.legend span { display: inline-block; margin-right: 1em; }
.legend i { display: inline-block; width: 10px; height: 10px;
            margin-right: 4px; border: 1px solid #999; }
table { border-collapse: collapse; margin-top: .4em; }
td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
th { background: #f2f2f2; } td.l, th.l { text-align: left; }
tr.flag td { background: #ffe2e2; }
canvas { border: 1px solid #ccc; display: block; margin-top: .4em; }
pre { background: #f7f7f7; padding: .6em; overflow-x: auto; }
.muted { color: #777; }
</style>
</head>
<body>
<h1>Performance attribution — __TITLE__</h1>
<div id="head"></div>
<h2>Critical path by layer</h2>
<div class="bar" id="layerbar"></div>
<div class="legend" id="legend"></div>
<h2>Timeline <span class="muted">(critical path outlined in red)</span></h2>
<canvas id="timeline" width="900" height="10"></canvas>
<div id="audit"></div>
<div id="diff"></div>
<script type="application/json" id="data">__DATA__</script>
<script>
const D = JSON.parse(document.getElementById("data").textContent);
const COLORS = __COLORS__;
const fmt = s => s >= 1 ? s.toFixed(2) + " s"
  : s >= 1e-3 ? (s * 1e3).toFixed(2) + " ms" : (s * 1e6).toFixed(1) + " us";
const A = D.attribution;
document.getElementById("head").innerHTML =
  "makespan <b>" + fmt(A.makespan) + "</b>, critical path " +
  fmt(A.path_length) + " (" + (100 * A.coverage).toFixed(1) +
  "% span coverage, " + A.critical_path.length + " segments)";
// Layer bar + legend.
const bar = document.getElementById("layerbar");
const leg = document.getElementById("legend");
const total = Object.values(A.layers).reduce((a, b) => a + b, 0) || 1;
for (const b of D.layer_order) {
  const s = A.layers[b] || 0;
  if (s <= 0) continue;
  const d = document.createElement("div");
  d.style.width = (100 * s / total) + "%";
  d.style.background = COLORS[b];
  d.title = b + ": " + fmt(s);
  bar.appendChild(d);
  leg.innerHTML += "<span><i style='background:" + COLORS[b] + "'></i>" +
    b + " " + fmt(s) + " (" + (100 * s / total).toFixed(1) + "%)</span>";
}
// Timeline canvas: one lane per resource, path segments outlined.
const lanes = [...new Set(D.events.map(e => e.resource))].sort();
const LH = 16, PAD = 170, W = 900;
const cv = document.getElementById("timeline");
cv.height = lanes.length * LH + 22;
const ctx = cv.getContext("2d");
const span = A.makespan || 1;
const X = t => PAD + (W - PAD - 8) * t / span;
ctx.font = "10px system-ui, sans-serif";
lanes.forEach((r, i) => {
  ctx.fillStyle = "#555";
  ctx.fillText(r, 4, i * LH + 11);
  ctx.strokeStyle = "#eee";
  ctx.beginPath(); ctx.moveTo(PAD, (i + 1) * LH); ctx.lineTo(W, (i + 1) * LH);
  ctx.stroke();
});
for (const e of D.events) {
  const i = lanes.indexOf(e.resource);
  ctx.fillStyle = COLORS[e.layer];
  ctx.fillRect(X(e.start), i * LH + 2,
               Math.max(1, X(e.end) - X(e.start)), LH - 4);
}
ctx.strokeStyle = "#d62728"; ctx.lineWidth = 1.5;
for (const s of A.critical_path) {
  if (s.task === null) continue;
  const i = lanes.indexOf(s.resource);
  if (i < 0) continue;
  ctx.strokeRect(X(s.start), i * LH + 1,
                 Math.max(1, X(s.end) - X(s.start)), LH - 2);
}
ctx.fillStyle = "#555";
ctx.fillText("0", PAD, lanes.length * LH + 14);
ctx.fillText(fmt(span), W - 60, lanes.length * LH + 14);
// Audit table.
if (D.audit && (D.audit.ranks.length || D.audit.comm.length)) {
  let h = "<h2>Model vs measured (roofline audit)</h2>" +
    "<p class='muted'>median achieved/predicted ratio " +
    D.audit.median_ratio.toPrecision(3) + "; relative band " +
    D.audit.band[0] + "&ndash;" + D.audit.band[1] + "</p>" +
    "<table><tr><th class='l'>key</th><th>rank</th><th>measured</th>" +
    "<th>predicted</th><th>relative</th><th class='l'>status</th></tr>";
  for (const e of D.audit.ranks.concat(D.audit.comm)) {
    const m = e.kind === "comm"
      ? [e.measured.toFixed(0) + " B", e.predicted.toFixed(0) + " B"]
      : [fmt(e.measured), fmt(e.predicted)];
    h += "<tr" + (e.flagged ? " class='flag'" : "") + "><td class='l'>" +
      e.key + "</td><td>" + e.rank + "</td><td>" + m[0] + "</td><td>" +
      m[1] + "</td><td>" + e.rel.toFixed(2) + "x</td><td class='l'>" +
      (e.flagged ? "OUT OF BAND" : "ok") + "</td></tr>";
  }
  document.getElementById("audit").innerHTML = h + "</table>";
}
// Run-to-run diff.
if (D.diff) {
  let h = "<h2>Run-to-run diff</h2><p>makespan " +
    fmt(D.diff.base_makespan) + " &rarr; " + fmt(D.diff.cur_makespan) +
    " (" + (D.diff.delta >= 0 ? "+" : "&minus;") +
    fmt(Math.abs(D.diff.delta)) + ")</p>";
  if (D.diff.fingerprints_match === false)
    h += "<p><b>WARNING:</b> plan fingerprints differ.</p>";
  if (D.diff.top_contributors.length) {
    h += "<table><tr><th class='l'>what</th><th>&Delta; busy time</th></tr>";
    for (const c of D.diff.top_contributors)
      h += "<tr><td class='l'>" + c.what + "</td><td>+" +
        fmt(c.delta) + "</td></tr>";
    h += "</table>";
  }
  document.getElementById("diff").innerHTML = h;
}
</script>
</body>
</html>
"""


def html_report(
    trace: Trace,
    attribution: Attribution,
    audit: RooflineAudit | None = None,
    trace_diff: TraceDiff | None = None,
    title: str = "run",
) -> str:
    """A single self-contained HTML page for the analyzed run."""
    data = {
        "attribution": attribution.to_dict(),
        "audit": audit.to_dict() if audit is not None else None,
        "diff": trace_diff.to_dict() if trace_diff is not None else None,
        "layer_order": list(LAYERS),
        "events": [
            {
                "task": e.task,
                "resource": e.resource,
                "start": e.start,
                "end": e.end,
                "layer": classify(e.task),
            }
            for e in trace.events
        ],
    }
    # "</" must not appear inside an inline <script> block.
    blob = json.dumps(data).replace("</", "<\\/")
    return (
        _PAGE.replace("__TITLE__", title)
        .replace("__COLORS__", json.dumps(_LAYER_COLORS))
        .replace("__DATA__", blob)
    )
