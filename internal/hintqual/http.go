package hintqual

import (
	"fmt"
	"net/http"
	"strings"

	"thermometer/internal/telemetry"
)

// Handler returns the live debug surface for the recorder:
//
//	/debug/hintqual             full Report as JSON (?top=N bounds the
//	                            mismatch table)
//	/debug/hintqual/heatmap     HTML page with an inline-SVG per-set
//	                            accuracy heatmap and the drift strip
//	/debug/hintqual/windows.csv the retained drift windows as CSV
//
// btbsim -hintqual -http mounts it on the telemetry server, next to
// /debug/attrib.
func (r *Recorder) Handler() http.Handler {
	p := &telemetry.ReportPages{
		Prefix: "/debug/hintqual", CSVName: "windows.csv", Title: "Hint-quality heatmap",
		JSON: func(top int) any { return r.Report(top) },
		CSV:  r.WriteWindowsCSV,
		Page: r.heatmapPage,
	}
	return p.Handler()
}

// heatmapPage writes the per-set accuracy heatmap (x: drift windows, y:
// sets) and the drift strip.
func (r *Recorder) heatmapPage(sb *strings.Builder) {
	rep := r.Report(1)
	fmt.Fprintf(sb, `<h1>Hint quality — policy=%s, %d sets &times; %d ways</h1>`,
		rep.Policy, rep.Sets, rep.Ways)
	fmt.Fprintf(sb, `<p>accuracy %.2f%% of branches, coverage %.2f%% of accesses, `+
		`%d/%d windows drifted (L1 &gt; %.2f).</p>`,
		100*rep.Summary.AccuracyBranches, 100*rep.Summary.CoverageAccesses,
		rep.Summary.DriftEpochs, rep.Summary.Windows, rep.Threshold)
	if len(rep.Windows) == 0 {
		sb.WriteString(`<p>no drift windows yet</p>`)
		return
	}
	sb.WriteString(`<h2>per-set hint accuracy (x: drift windows, y: sets)</h2>`)
	telemetry.HeatmapSVG(sb, len(rep.Windows), rep.Sets, func(e, s int) (float64, float64) {
		return float64(rep.Windows[e].SetAgree[s]), float64(rep.Windows[e].SetTotal[s])
	})
	sb.WriteString(`<h2>windowed L1 drift (brightest: L1 = 2)</h2>`)
	telemetry.HeatmapSVG(sb, len(rep.Windows), 1, func(e, _ int) (float64, float64) {
		return rep.Windows[e].L1, 2
	})
}
