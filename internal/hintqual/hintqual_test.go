package hintqual

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"thermometer/internal/attribution"
	"thermometer/internal/belady"
	"thermometer/internal/btb"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
)

// table builds a hint table over the default 3-bucket configuration.
func table(hints map[uint64]uint8) *profile.HintTable {
	return &profile.HintTable{Config: profile.DefaultConfig(), Hints: hints}
}

// feed mimics core's probe fan-out for one recorder bound to the
// hint-quality audit, as core.Config.HintQual binds it: a same-geometry
// Belady shadow steps once per demand access and the recorder reads its
// verdict.
type feed struct {
	*attribution.Recorder
	opt *belady.Shadow
}

func bind(r *attribution.Recorder, policy string, sets, ways int, hints *profile.HintTable) *feed {
	r.Bind(policy, sets, ways, 0, hints, attribution.AuditHints)
	return &feed{r, belady.NewShadow(sets, ways)}
}

func (f *feed) demand(set int, req *btb.Request) {
	out, _ := f.opt.Access(req.PC, req.NextUse)
	f.OnProbe(btb.ProbeInsert, 0, set, 0, req, nil, out == belady.ShadowHit)
}

// access drives one demand access through the recorder. nextUse positions
// are synthesized as a strictly increasing stream so every access promises
// reuse (the shadow then behaves like a plain set-associative fill).
func access(f *feed, pc uint64, idx int) {
	f.demand(int(pc%4), &btb.Request{PC: pc, NextUse: idx + 1, Index: idx})
}

func TestUnboundRecorderIsInert(t *testing.T) {
	r := New(Options{})
	r.OnProbe(btb.ProbeHit, 0, 0, 0, &btb.Request{PC: 0x40}, nil, true) // must not panic
	r.OnEpoch(100, nil)
	r.OnWarmupReset()
	r.OnFinish(200, nil)
	if s := r.HintSummary(); s.Accesses != 0 {
		t.Fatalf("unbound recorder recorded %d accesses", s.Accesses)
	}
	rep := r.HintReport(0)
	if rep.Windows == nil || rep.TopMismatches == nil || rep.ConfusionBranches == nil {
		t.Fatal("unbound report must carry non-nil arrays")
	}
}

func TestCoverageAndConfusion(t *testing.T) {
	// 4 sets x 1 way: distinct PCs per set so every repeat access hits the
	// shadow. Branch 0x10 is hinted Hot and re-accessed often (observed
	// hot); 0x21 is hinted Hot but touched once (observed cold); 0x42 is
	// unhinted and re-accessed (observed hot, predicted the Warm default).
	r := New(Options{})
	f := bind(r, "lru", 4, 1, table(map[uint64]uint8{0x10: profile.Hot, 0x21: profile.Hot}))

	idx := 0
	for i := 0; i < 10; i++ {
		access(f, 0x10, idx)
		idx++
	}
	access(f, 0x21, idx)
	idx++
	for i := 0; i < 10; i++ {
		access(f, 0x42, idx)
		idx++
	}

	s := r.HintSummary()
	if s.Accesses != 21 || s.Branches != 3 {
		t.Fatalf("accesses/branches = %d/%d, want 21/3", s.Accesses, s.Branches)
	}
	if want := 11.0 / 21.0; math.Abs(s.CoverageAccesses-want) > 1e-12 {
		t.Fatalf("coverage accesses = %v, want %v", s.CoverageAccesses, want)
	}
	if want := 2.0 / 3.0; math.Abs(s.CoverageBranches-want) > 1e-12 {
		t.Fatalf("coverage branches = %v, want %v", s.CoverageBranches, want)
	}

	rep := r.HintReport(10)
	// 0x10: 9/10 shadow hits -> Hot observed, Hot predicted: match.
	// 0x21: 0/1 -> Cold observed, Hot predicted: over-predicted.
	// 0x42: 9/10 -> Hot observed, Warm (default) predicted: under-predicted.
	if got := rep.ConfusionBranches[profile.Hot][profile.Hot]; got != 1 {
		t.Fatalf("hot/hot branches = %d, want 1", got)
	}
	if got := rep.ConfusionBranches[profile.Hot][profile.Cold]; got != 1 {
		t.Fatalf("hot/cold branches = %d, want 1", got)
	}
	if got := rep.ConfusionBranches[profile.Warm][profile.Hot]; got != 1 {
		t.Fatalf("warm/hot branches = %d, want 1", got)
	}
	if s.OverPredicted != 1 || s.UnderPredicted != 1 {
		t.Fatalf("over/under = %d/%d, want 1/1", s.OverPredicted, s.UnderPredicted)
	}
	if want := 1.0 / 3.0; math.Abs(s.AccuracyBranches-want) > 1e-12 {
		t.Fatalf("accuracy branches = %v, want %v", s.AccuracyBranches, want)
	}
	if len(rep.TopMismatches) != 2 {
		t.Fatalf("top mismatches = %d, want 2", len(rep.TopMismatches))
	}
	// Sorted by accesses descending: the busy unhinted branch first.
	if rep.TopMismatches[0].PC != 0x42 || rep.TopMismatches[1].PC != 0x21 {
		t.Fatalf("mismatch order = %#x, %#x", rep.TopMismatches[0].PC, rep.TopMismatches[1].PC)
	}
}

func TestDriftWindows(t *testing.T) {
	// Window 1 matches the profile (hinted-hot branch observed hot: its
	// running ratio is cold or warm only for its first five accesses, so
	// L1 = 10/80); window 2 diverges (a burst of hinted-hot but never-reused
	// branches).
	r := New(Options{})
	hints := map[uint64]uint8{0x10: profile.Hot}
	for pc := uint64(0x100); pc < 0x140; pc++ {
		hints[pc] = profile.Hot
	}
	f := bind(r, "lru", 4, 1, table(hints))

	idx := 0
	for i := 0; i < 80; i++ {
		access(f, 0x10, idx)
		idx++
	}
	f.OnEpoch(1000, nil)
	for pc := uint64(0x100); pc < 0x140; pc++ {
		// One cold touch each: profiled hot, observed cold.
		f.demand(int(pc%4), &btb.Request{PC: pc, NextUse: trace.NoNextUse, Index: idx})
		idx++
	}
	f.OnEpoch(2000, nil)

	rep := r.HintReport(0)
	if len(rep.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(rep.Windows))
	}
	w1, w2 := rep.Windows[0], rep.Windows[1]
	if w1.StartInstr != 0 || w1.EndInstr != 1000 || w2.StartInstr != 1000 || w2.EndInstr != 2000 {
		t.Fatalf("window bounds [%d,%d) [%d,%d)", w1.StartInstr, w1.EndInstr, w2.StartInstr, w2.EndInstr)
	}
	if w1.Drift {
		t.Fatalf("matching window flagged as drift (L1=%v)", w1.L1)
	}
	if !w2.Drift || w2.L1 != 2 {
		t.Fatalf("divergent window: drift=%t L1=%v, want true/2", w2.Drift, w2.L1)
	}
	if rep.Summary.DriftEpochs != 1 {
		t.Fatalf("drift epochs = %d, want 1", rep.Summary.DriftEpochs)
	}
	// Distribution bookkeeping: both windows' vectors sum to their accesses.
	for _, w := range rep.Windows {
		var p, o uint64
		for i := range w.Predicted {
			p += w.Predicted[i]
			o += w.Observed[i]
		}
		if p != w.Accesses || o != w.Accesses {
			t.Fatalf("window sums %d/%d != accesses %d", p, o, w.Accesses)
		}
	}
}

func TestEmptyWindowSkipped(t *testing.T) {
	r := New(Options{})
	f := bind(r, "lru", 4, 1, nil)
	f.OnEpoch(500, nil)
	access(f, 0x10, 0)
	f.OnEpoch(1000, nil)
	rep := r.HintReport(0)
	if len(rep.Windows) != 1 {
		t.Fatalf("windows = %d, want 1 (empty window must be skipped)", len(rep.Windows))
	}
	if rep.Windows[0].StartInstr != 500 {
		t.Fatalf("window start = %d, want 500 (advanced past the empty window)", rep.Windows[0].StartInstr)
	}
}

func TestWindowRingBounded(t *testing.T) {
	r := New(Options{})
	f := bind(r, "lru", 4, 1, nil)
	const n = attribution.WindowCap + 6
	for i := 0; i < n; i++ {
		access(f, 0x10, i)
		f.OnEpoch(uint64(i+1)*100, nil)
	}
	rep := r.HintReport(0)
	if len(rep.Windows) != attribution.WindowCap || rep.WindowsDropped != 6 {
		t.Fatalf("retained/dropped = %d/%d, want %d/6", len(rep.Windows), rep.WindowsDropped, attribution.WindowCap)
	}
	// Oldest-first: the retained rows are the last WindowCap samples.
	if first, last := rep.Windows[0].EndInstr, rep.Windows[len(rep.Windows)-1].EndInstr; first != 700 || last != n*100 {
		t.Fatalf("ring order: first end %d, last end %d", first, last)
	}
}

func TestOnWarmupResetKeepsTraining(t *testing.T) {
	r := New(Options{})
	f := bind(r, "lru", 4, 1, table(map[uint64]uint8{0x10: profile.Hot}))
	for i := 0; i < 5; i++ {
		access(f, 0x10, i)
	}
	f.OnEpoch(100, nil)
	r.OnWarmupReset()
	if s := r.HintSummary(); s.Accesses != 0 || s.Windows != 0 {
		t.Fatalf("post-reset accesses/windows = %d/%d, want 0/0", s.Accesses, s.Windows)
	}
	// The shadow stayed trained: the next access to 0x10 is an immediate
	// hit, so the branch observes Hot from its very first measured access.
	access(f, 0x10, 5)
	rep := r.HintReport(0)
	if got := rep.ConfusionBranches[profile.Hot][profile.Hot]; got != 1 {
		t.Fatalf("post-reset confusion hot/hot = %d, want 1 (shadow lost training?)", got)
	}
	if rep.Summary.Branches != 1 {
		t.Fatalf("branches = %d, want 1", rep.Summary.Branches)
	}
}

// The per-access path must be allocation-free once the branch working set
// and shadow sets are warm; the drift-window ring is the only steady-state
// allocator and it only runs on epoch boundaries.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	r := New(Options{})
	f := bind(r, "lru", 16, 4, table(map[uint64]uint8{0x10: profile.Hot}))
	reqs := make([]btb.Request, 256)
	for i := range reqs {
		reqs[i] = btb.Request{PC: uint64(0x1000 + i), NextUse: i + 1, Index: i}
	}
	// Warm the branch table and fill the shadow sets.
	for i := range reqs {
		f.demand(i%16, &reqs[i])
	}
	idx := 0
	allocs := testing.AllocsPerRun(100, func() {
		f.demand(idx%16, &reqs[idx%len(reqs)])
		idx++
	})
	if allocs != 0 {
		t.Fatalf("steady-state demand access allocates %.1f objects/op, want 0", allocs)
	}
}

func TestHandlerSurfaces(t *testing.T) {
	r := New(Options{})
	f := bind(r, "srrip", 4, 1, table(map[uint64]uint8{0x10: profile.Hot}))
	for i := 0; i < 8; i++ {
		access(f, 0x10, i)
	}
	f.OnEpoch(100, nil)
	h := r.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hintqual", nil))
	var rep attribution.HintReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("JSON body: %v", err)
	}
	if rep.Policy != "srrip" || rep.Summary.Accesses != 8 {
		t.Fatalf("report = %s/%d accesses", rep.Policy, rep.Summary.Accesses)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hintqual?top=0", nil))
	if rec.Code != 400 {
		t.Fatalf("top=0 status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hintqual/heatmap", nil))
	if body := rec.Body.String(); !strings.Contains(body, "<svg") || !strings.Contains(body, "srrip") {
		t.Fatalf("heatmap page missing SVG or policy name:\n%.200s", body)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/hintqual/windows.csv", nil))
	body := rec.Body.String()
	if !strings.HasPrefix(body, "start_instr,end_instr,accesses") {
		t.Fatalf("csv header:\n%.200s", body)
	}
	if lines := strings.Count(strings.TrimSpace(body), "\n"); lines != 1 {
		t.Fatalf("csv rows = %d, want 1", lines)
	}
}

func TestWriteTextReport(t *testing.T) {
	r := New(Options{})
	f := bind(r, "lru", 4, 1, table(map[uint64]uint8{0x10: profile.Hot, 0x21: profile.Hot}))
	for i := 0; i < 8; i++ {
		access(f, 0x10, i)
	}
	access(f, 0x21, 8)
	f.OnEpoch(100, nil)

	var sb strings.Builder
	if err := r.WriteHintText(&sb, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"hint-quality report (policy=lru",
		"hint coverage",
		"confusion matrix",
		"drift windows",
		"top mismatched branches",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
