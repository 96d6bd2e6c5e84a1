package attribution

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Handler returns the live debug surface for the recorder, one set of
// routes per audit:
//
//	/debug/attrib               regret Report as JSON (?top=N bounds the
//	                            branch table)
//	/debug/attrib/heatmap       HTML page with inline-SVG occupancy and
//	                            temperature heatmaps
//	/debug/attrib/heatmap.csv   the retained heatmap rows as CSV
//	/debug/hintqual             HintReport as JSON (?top=N bounds the
//	                            mismatch table)
//	/debug/hintqual/heatmap     HTML page with an inline-SVG per-set
//	                            accuracy heatmap and the drift strip
//	/debug/hintqual/windows.csv the retained drift windows as CSV
//
// btbsim -http mounts each audit's prefix it attached on the telemetry
// server. Response write errors are dropped: they mean the client went
// away.
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	pages(mux, "/debug/attrib", "heatmap.csv", "BTB attribution heatmap",
		func(top int) any { return r.Report(top) }, r.WriteHeatCSV, r.heatmapPage)
	pages(mux, "/debug/hintqual", "windows.csv", "Hint-quality heatmap",
		func(top int) any { return r.HintReport(top) }, r.WriteWindowsCSV, r.hintPage)
	return mux
}

// pages serves one audit's report as JSON at prefix (report's top argument
// is ?top=N, 0 when absent), its CSV at prefix/csvName, and an HTML page at
// prefix/heatmap whose body page writes, followed by links to the other two.
func pages(mux *http.ServeMux, prefix, csvName, title string, report func(top int) any,
	csv func(io.Writer) error, page func(*strings.Builder)) {
	mux.HandleFunc(prefix, func(w http.ResponseWriter, req *http.Request) {
		var top int
		if v := req.URL.Query().Get("top"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				http.Error(w, "top must be a positive integer", http.StatusBadRequest)
				return
			}
			top = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(report(top))
	})
	mux.HandleFunc(prefix+"/heatmap", func(w http.ResponseWriter, _ *http.Request) {
		var sb strings.Builder
		fmt.Fprintf(&sb, `<!DOCTYPE html><html><head><title>%s</title>`+
			`<style>body{font-family:monospace;background:#111;color:#ddd;padding:1em}`+
			`h2{margin-bottom:0.2em}</style></head><body>`, title)
		page(&sb)
		fmt.Fprintf(&sb, `<p><a href="%s">JSON report</a> &middot; <a href="%s/%s">CSV</a></p></body></html>`,
			prefix, prefix, csvName)
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = io.WriteString(w, sb.String())
	})
	mux.HandleFunc(prefix+"/"+csvName, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		_ = csv(w)
	})
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
	heatmapSVG(sb, len(rep.Heat), rep.Sets, func(e, s int) (float64, float64) {
		return float64(rep.Heat[e].Valid[s]), 1
	})
	sb.WriteString(`<h2>temperature (stored hint sum per set)</h2>`)
	heatmapSVG(sb, len(rep.Heat), rep.Sets, func(e, s int) (float64, float64) {
		return float64(rep.Heat[e].TempSum[s]), 1
	})
}

// hintPage writes the per-set accuracy heatmap (x: drift windows, y: sets)
// and the drift strip.
func (r *Recorder) hintPage(sb *strings.Builder) {
	rep := r.HintReport(1)
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
	heatmapSVG(sb, len(rep.Windows), rep.Sets, func(e, s int) (float64, float64) {
		return float64(rep.Windows[e].SetAgree[s]), float64(rep.Windows[e].SetTotal[s])
	})
	sb.WriteString(`<h2>windowed L1 drift (brightest: L1 = 2)</h2>`)
	heatmapSVG(sb, len(rep.Windows), 1, func(e, _ int) (float64, float64) {
		return rep.Windows[e].L1, 2
	})
}

// heatmapSVG appends a cols (x) by rows (y) heatmap to sb as inline SVG,
// shaded dark blue (low) to bright orange (high). Rows are merged into at
// most 128 horizontal bands so the image stays small for large BTBs. cell
// returns a numerator and a denominator; a band shows Σnum/Σden over its
// rows, scaled against the larger of 1 and the brightest band. A band with
// nothing to average (Σden = 0) is gray.
func heatmapSVG(sb *strings.Builder, cols, rows int, cell func(col, row int) (num, den float64)) {
	const (
		maxBands = 128
		cellW    = 6
		cellH    = 4
	)
	per := max((rows+maxBands-1)/maxBands, 1)
	bands := (rows + per - 1) / per
	vals := make([]float64, cols*bands)
	top := 1.0
	for i := range vals {
		var num, den float64
		for r := i % bands * per; r < min((i%bands+1)*per, rows); r++ {
			n, d := cell(i/bands, r)
			num, den = num+n, den+d
		}
		vals[i] = -1
		if den > 0 {
			vals[i] = num / den
			top = max(top, vals[i])
		}
	}
	fmt.Fprintf(sb, `<svg width="%d" height="%d" xmlns="http://www.w3.org/2000/svg">`,
		cols*cellW, bands*cellH)
	for i, v := range vals {
		fill := "rgb(60,60,60)"
		if v >= 0 {
			t := v / top
			fill = fmt.Sprintf("rgb(%d,%d,%d)", int(20+235*t), int(30+130*t), int(90-60*t))
		}
		fmt.Fprintf(sb, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`,
			i/bands*cellW, i%bands*cellH, cellW, cellH, fill)
	}
	sb.WriteString(`</svg>`)
}
