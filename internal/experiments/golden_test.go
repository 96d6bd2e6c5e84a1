package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateExpGolden = flag.Bool("update-golden", false, "rewrite the experiments golden file")

// renderAll runs the given experiments on a fresh context at the given pool
// width and returns the concatenated rendered tables.
func renderAll(t *testing.T, ids []string, workers int) []byte {
	t.Helper()
	c := NewContext(16)
	c.CBP5Traces = 2
	c.IPC1Traces = 2
	c.Workers = workers
	var buf bytes.Buffer
	for _, id := range ids {
		for _, tab := range c.Run(id) {
			tab.Render(&buf)
		}
	}
	return buf.Bytes()
}

// TestGoldenParallelDeterminism is the determinism acceptance test for the
// experiment port onto the worker pool: rendered figures must be
// byte-identical at -parallel=1 and -parallel=8. The chosen experiments
// cover every loop shape — per-app (fig1), per-app with hint profiling
// (fig11), replay-based (fig12), flattened app×input with skipped cells
// (fig13), CBP-5 suite (fig17), sensitivity grid (fig19), and the
// app×policy attribution grid (regret).
func TestGoldenParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow determinism sweep")
	}
	ids := []string{"fig1", "fig11", "fig12", "fig13", "fig17", "fig19", "regret"}
	serial := renderAll(t, ids, 1)
	parallel := renderAll(t, ids, 8)
	if !bytes.Equal(serial, parallel) {
		a, b := string(serial), string(parallel)
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := max(0, i-120)
				t.Fatalf("output diverges at byte %d:\nserial:   …%s\nparallel: …%s",
					i, a[lo:min(len(a), i+40)], b[lo:min(len(b), i+40)])
			}
		}
		t.Fatalf("output lengths differ: serial %d bytes, parallel %d bytes", len(serial), len(parallel))
	}
}

// TestGoldenExperiments pins every registered experiment's rendered tables,
// at scale 16 with two CBP-5 and two IPC-1 traces, to a checked-in golden
// file. fig14 is left out: it reports wall-clock profiling time. The golden
// was generated before the per-app tables moved onto one builder and the
// hint tables onto the trace's memo, and pins both to byte-identical
// output. Regenerate with:
//
//	go test ./internal/experiments -run TestGoldenExperiments -update-golden
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("slow golden sweep")
	}
	var ids []string
	for _, id := range IDs() {
		if id != "fig14" {
			ids = append(ids, id)
		}
	}
	got := renderAll(t, ids, 0)
	path := filepath.Join("testdata", "golden_experiments.txt")
	if *updateExpGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d experiments)", path, len(ids))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
