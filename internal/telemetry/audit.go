package telemetry

// This file holds the scaffolding the audit recorders (package attribution,
// package hintqual) share: one debug surface, one heatmap renderer and one
// ranked-table helper.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ReportPages is the debug surface the audit recorders share
// (/debug/attrib, /debug/hintqual): a JSON report, a CSV export and an HTML
// page of inline-SVG heatmaps, all under one route prefix.
type ReportPages struct {
	// Prefix is the JSON route; the page is served at Prefix+"/heatmap" and
	// the CSV at Prefix+"/"+CSVName.
	Prefix, CSVName string
	// Title heads the HTML page.
	Title string
	// JSON returns the report body; top bounds its ranked tables (?top=N,
	// 0 when absent, which TopN reads as its default).
	JSON func(top int) any
	// CSV writes the CSV export.
	CSV func(io.Writer) error
	// Page writes the HTML page body; links to the JSON and CSV routes
	// follow it.
	Page func(sb *strings.Builder)
}

// Handler serves the three routes; mount it at Prefix. Response write
// errors are dropped: they mean the client went away.
func (p *ReportPages) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(p.Prefix, func(w http.ResponseWriter, req *http.Request) {
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
		_ = enc.Encode(p.JSON(top))
	})
	mux.HandleFunc(p.Prefix+"/heatmap", func(w http.ResponseWriter, _ *http.Request) {
		var sb strings.Builder
		fmt.Fprintf(&sb, `<!DOCTYPE html><html><head><title>%s</title>`+
			`<style>body{font-family:monospace;background:#111;color:#ddd;padding:1em}`+
			`h2{margin-bottom:0.2em}</style></head><body>`, p.Title)
		p.Page(&sb)
		fmt.Fprintf(&sb, `<p><a href="%s">JSON report</a> &middot; <a href="%s/%s">CSV</a></p></body></html>`,
			p.Prefix, p.Prefix, p.CSVName)
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = io.WriteString(w, sb.String())
	})
	mux.HandleFunc(p.Prefix+"/"+p.CSVName, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		_ = p.CSV(w)
	})
	return mux
}

// HeatmapSVG appends a cols (x) by rows (y) heatmap to sb as inline SVG,
// shaded dark blue (low) to bright orange (high). Rows are merged into at
// most 128 horizontal bands so the image stays small for large BTBs. cell
// returns a numerator and a denominator; a band shows Σnum/Σden over its
// rows, scaled against the larger of 1 and the brightest band. A band with
// nothing to average (Σden = 0) is gray.
func HeatmapSVG(sb *strings.Builder, cols, rows int, cell func(col, row int) (num, den float64)) {
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

// TopN sorts rows by key, largest first, and keeps the first n (n <= 0
// means 20). The sort is stable, so rows built in PC order break ties by
// ascending PC.
func TopN[T any](rows []T, n int, key func(*T) uint64) []T {
	if n <= 0 {
		n = 20
	}
	sort.SliceStable(rows, func(i, j int) bool { return key(&rows[i]) > key(&rows[j]) })
	return rows[:min(n, len(rows))]
}
