package attribution

import (
	"fmt"
	"net/http"
	"strings"

	"thermometer/internal/telemetry"
)

// Handler returns the live debug surface for the recorder:
//
//	/debug/attrib             full Report as JSON (?top=N bounds the
//	                          branch table)
//	/debug/attrib/heatmap     HTML page with inline-SVG occupancy and
//	                          temperature heatmaps
//	/debug/attrib/heatmap.csv the retained heatmap rows as CSV
//
// btbsim -attrib -http mounts it on the telemetry server.
func (r *Recorder) Handler() http.Handler {
	p := &telemetry.ReportPages{
		Prefix: "/debug/attrib", CSVName: "heatmap.csv", Title: "BTB attribution heatmap",
		JSON: func(top int) any { return r.Report(top) },
		CSV:  r.WriteHeatCSV,
		Page: r.heatmapPage,
	}
	return p.Handler()
}

// heatmapPage writes the occupancy and temperature heatmaps (x: epochs,
// y: sets).
func (r *Recorder) heatmapPage(sb *strings.Builder) {
	rep := r.Report(1)
	fmt.Fprintf(sb, `<h1>BTB heatmap — policy=%s, %d sets &times; %d ways</h1>`,
		rep.Policy, rep.Sets, rep.Ways)
	fmt.Fprintf(sb, `<p>%d epoch rows retained (%d dropped); x: epochs, y: sets.</p>`,
		len(rep.Heat), rep.HeatDropped)
	if len(rep.Heat) == 0 {
		sb.WriteString(`<p>no samples yet</p>`)
		return
	}
	sb.WriteString(`<h2>occupancy (valid entries per set)</h2>`)
	telemetry.HeatmapSVG(sb, len(rep.Heat), rep.Sets, func(e, s int) (float64, float64) {
		return float64(rep.Heat[e].Valid[s]), 1
	})
	sb.WriteString(`<h2>temperature (stored hint sum per set)</h2>`)
	telemetry.HeatmapSVG(sb, len(rep.Heat), rep.Sets, func(e, s int) (float64, float64) {
		return float64(rep.Heat[e].TempSum[s]), 1
	})
}
