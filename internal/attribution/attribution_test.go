package attribution

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thermometer/internal/belady"
	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
	"thermometer/internal/trace"
)

// feed mimics core's probe fan-out for one bound recorder: a same-geometry
// Belady shadow steps once per demand event and the recorder reads its
// verdict.
type feed struct {
	r   *Recorder
	opt *belady.Shadow
}

func bind(r *Recorder, policy string, sets, ways int) *feed {
	r.Bind(policy, sets, ways, 0, nil, AuditRegret)
	return &feed{r: r, opt: belady.NewShadow(sets, ways)}
}

func (f *feed) probe(kind btb.ProbeKind, cycle uint64, set, way int, req *btb.Request, victim *btb.Entry) {
	optHit := false
	if kind.Demand() {
		out, _ := f.opt.Access(req.PC, req.NextUse)
		optHit = out == belady.ShadowHit
	}
	f.r.OnProbe(kind, cycle, set, way, req, victim, optHit)
}

// driveHandChecked replays a hand-checked 7-access stream against a 1x2
// recorder, mimicking the probe sequence an LRU BTB would emit. Every
// expectation below was computed by hand.
func driveHandChecked(t *testing.T, r *Recorder) *feed {
	t.Helper()
	f := bind(r, "lru", 1, 2)
	req := func(pc uint64, idx, next int) *btb.Request {
		return &btb.Request{PC: pc, Target: pc + 4, NextUse: next, Index: idx}
	}
	victim := func(pc uint64, temp uint8) *btb.Entry {
		return &btb.Entry{Valid: true, PC: pc, Target: pc + 4, Temperature: temp}
	}
	const nn = trace.NoNextUse
	f.probe(btb.ProbeInsert, 0, 0, 0, req(0xa, 0, 2), nil) // A: compulsory miss, fills way 0
	f.probe(btb.ProbeInsert, 0, 0, 1, req(0xb, 1, 3), nil) // B: compulsory miss, fills way 1
	f.probe(btb.ProbeHit, 0, 0, 0, req(0xa, 2, 4), nil)
	f.probe(btb.ProbeHit, 0, 0, 1, req(0xb, 3, nn), nil)
	// C misses; LRU evicts A (way 0). Belady would evict B (never reused).
	f.probe(btb.ProbeEvict, 40, 0, 0, req(0xc, 4, 6), victim(0xa, 2))
	f.probe(btb.ProbeInsert, 40, 0, 0, req(0xc, 4, 6), nil)
	// A misses again — the shadow kept it, so the cycle-40 decision is
	// charged. LRU then evicts B; Belady would bypass A (never reused).
	f.probe(btb.ProbeEvict, 50, 0, 1, req(0xa, 5, nn), victim(0xb, 0))
	f.probe(btb.ProbeInsert, 50, 0, 1, req(0xa, 5, nn), nil)
	f.probe(btb.ProbeHit, 60, 0, 0, req(0xc, 6, nn), nil)
	return f
}

func TestClassifierAndRegretHandChecked(t *testing.T) {
	r := New(Options{})
	driveHandChecked(t, r)
	accesses, hits, misses, regret := r.Counts()
	if accesses != 7 || hits != 3 {
		t.Fatalf("accesses=%d hits=%d, want 7/3", accesses, hits)
	}
	if misses.Total != 4 || misses.Compulsory != 3 || misses.Conflict != 1 || misses.Capacity != 0 {
		t.Fatalf("miss classes %+v, want total 4 = 3 compulsory + 1 conflict", misses)
	}
	if misses.Compulsory+misses.Capacity+misses.Conflict != misses.Total {
		t.Fatalf("taxonomy not exhaustive: %+v", misses)
	}
	if regret.Decisions != 2 || regret.Evictions != 2 || regret.Bypasses != 0 {
		t.Fatalf("decisions %+v, want 2 evictions", regret)
	}
	if regret.AgreeOPT != 0 {
		t.Fatalf("agreeOPT=%d, want 0 (LRU diverged from Belady both times)", regret.AgreeOPT)
	}
	if regret.Charged != 1 || regret.Unattributed != 0 || regret.Windfall != 0 {
		t.Fatalf("regret %+v, want exactly 1 attributed charge", regret)
	}
	if regret.ShadowOPTMisses != 3 || regret.Net != 1 {
		t.Fatalf("net=%d shadowMisses=%d, want 1 and 3 (4 policy misses - 3 OPT)", regret.Net, regret.ShadowOPTMisses)
	}

	rep := r.Report(10)
	if len(rep.RecentDecisions) != 2 || rep.DecisionsDropped != 0 {
		t.Fatalf("ring: %d retained %d dropped", len(rep.RecentDecisions), rep.DecisionsDropped)
	}
	d0 := rep.RecentDecisions[0]
	if d0.Cycle != 40 || d0.VictimPC != 0xa || d0.IncomingPC != 0xc ||
		d0.Way != 0 || d0.OPTWay != 1 || d0.Agree || d0.Regret != 1 {
		t.Fatalf("first decision %+v", d0)
	}
	d1 := rep.RecentDecisions[1]
	if d1.Cycle != 50 || d1.VictimPC != 0xb || d1.OPTWay != -1 || d1.Agree || d1.Regret != 0 {
		t.Fatalf("second decision %+v", d1)
	}
	if d0.VictimTemp != 2 {
		t.Fatalf("victim temperature bits not recorded: %+v", d0)
	}
	if len(rep.TopBranches) == 0 || rep.TopBranches[0].PC != 0xa || rep.TopBranches[0].Charged != 1 {
		t.Fatalf("top branches %+v, want 0xa charged once first", rep.TopBranches)
	}
	if len(rep.PerSet) != 1 || rep.PerSet[0].Evictions != 2 || rep.PerSet[0].Charged != 1 {
		t.Fatalf("per-set %+v", rep.PerSet)
	}
	// The one charge went to the cycle-40 decision: victim 0xa stored
	// temperature 2, incoming 0xc carried 0.
	var want [4][4]uint64
	want[2][0] = 1
	if rep.ChargedByTemp != want {
		t.Fatalf("charged by temperature %v, want %v", rep.ChargedByTemp, want)
	}
}

func TestBypassDecisionAndUnattributed(t *testing.T) {
	r := New(Options{})
	f := bind(r, "thermometer", 1, 1)
	const nn = trace.NoNextUse
	// A fills the single entry; B is denied (bypass). B's re-access misses
	// and — since the shadow inserted B over A — is charged to the bypass.
	f.probe(btb.ProbeInsert, 0, 0, 0, &btb.Request{PC: 0xa, NextUse: nn, Index: 0}, nil)
	f.probe(btb.ProbeBypass, 10, 0, -1, &btb.Request{PC: 0xb, NextUse: 2, Index: 1, Temperature: 3}, nil)
	f.probe(btb.ProbeBypass, 20, 0, -1, &btb.Request{PC: 0xb, NextUse: nn, Index: 2}, nil)

	_, _, misses, regret := r.Counts()
	if misses.Total != 3 || misses.Compulsory != 2 || misses.Conflict != 1 {
		t.Fatalf("miss classes %+v", misses)
	}
	if regret.Bypasses != 2 || regret.Evictions != 0 {
		t.Fatalf("regret %+v, want 2 bypass decisions", regret)
	}
	if regret.Charged != 1 || regret.Unattributed != 0 {
		t.Fatalf("regret %+v, want the repeat miss charged to the first bypass", regret)
	}
	rep := r.Report(5)
	if rep.RecentDecisions[0].Way != -1 || rep.RecentDecisions[0].VictimPC != 0xb ||
		rep.RecentDecisions[0].Regret != 1 || rep.RecentDecisions[0].VictimTemp != 3 {
		t.Fatalf("bypass decision %+v", rep.RecentDecisions[0])
	}
	// Belady would have inserted B (A is never reused): disagreement.
	if rep.RecentDecisions[0].Agree {
		t.Fatal("bypass of a reused branch over a dead resident should disagree with OPT")
	}
	// A bypass is its own victim: the charge lands on the diagonal.
	if rep.ChargedByTemp[3][3] != 1 {
		t.Fatalf("charged by temperature %v, want the bypass in cell (3, 3)", rep.ChargedByTemp)
	}
}

func TestDecisionRingBounded(t *testing.T) {
	r := New(Options{})
	f := bind(r, "lru", 4, 1)
	for i := 0; i < RingCap+6; i++ {
		pc := uint64(4*i) + 1 // all in set 1
		f.probe(btb.ProbeEvict, uint64(i), 1, 0, &btb.Request{PC: pc, NextUse: trace.NoNextUse, Index: i},
			&btb.Entry{Valid: true, PC: pc + 100})
	}
	rep := r.Report(1)
	if len(rep.RecentDecisions) != RingCap || rep.DecisionsDropped != 6 {
		t.Fatalf("ring retained %d dropped %d, want %d/6", len(rep.RecentDecisions), rep.DecisionsDropped, RingCap)
	}
	// Oldest-first ordering: the first six decisions fell off.
	for i, d := range rep.RecentDecisions {
		if d.Cycle != uint64(6+i) {
			t.Fatalf("ring order wrong at %d: cycle %d", i, d.Cycle)
		}
	}
}

func TestHeatmapSamplingBounded(t *testing.T) {
	r := New(Options{})
	r.Bind("lru", 8, 2, 0, nil, AuditRegret)
	b := btb.NewWithSets(8, 2, policy.NewLRU())
	b.Access(&btb.Request{PC: 3, Target: 7, NextUse: trace.NoNextUse, Temperature: 2})
	b.Access(&btb.Request{PC: 11, Target: 15, NextUse: trace.NoNextUse, Temperature: 1})
	for i := 0; i < HeatCap+2; i++ {
		r.OnEpoch(uint64(1000*(i+1)), b)
	}
	rep := r.Report(1)
	if len(rep.Heat) != HeatCap || rep.HeatDropped != 2 {
		t.Fatalf("heat retained %d dropped %d, want %d/2", len(rep.Heat), rep.HeatDropped, HeatCap)
	}
	last := rep.Heat[len(rep.Heat)-1]
	if want := uint64(1000 * (HeatCap + 2)); last.EndInstr != want {
		t.Fatalf("last heat row at %d, want %d", last.EndInstr, want)
	}
	// PCs 3 and 11 both land in set 3 (mod 8): 2 valid entries, temp sum 3.
	if last.Valid[3] != 2 || last.TempSum[3] != 3 {
		t.Fatalf("set 3 census valid=%d temp=%d, want 2/3", last.Valid[3], last.TempSum[3])
	}
	for s := 0; s < 8; s++ {
		if s != 3 && last.Valid[s] != 0 {
			t.Fatalf("set %d unexpectedly occupied", s)
		}
	}
}

func TestWarmupResetKeepsTrainedState(t *testing.T) {
	r := New(Options{})
	f := driveHandChecked(t, r)
	r.OnWarmupReset()
	accesses, _, misses, regret := r.Counts()
	if accesses != 0 || misses.Total != 0 || regret.Decisions != 0 || regret.Charged != 0 {
		t.Fatalf("counters survived reset: acc=%d %+v %+v", accesses, misses, regret)
	}
	rep := r.Report(1)
	if len(rep.RecentDecisions) != 0 || len(rep.Heat) != 0 {
		t.Fatal("rings survived reset")
	}
	// The first-touch set must persist: a post-reset re-access of a warmed
	// branch is not compulsory.
	f.probe(btb.ProbeBypass, 100, 0, -1, &btb.Request{PC: 0xa, NextUse: trace.NoNextUse, Index: 7}, nil)
	_, _, misses, _ = r.Counts()
	if misses.Total != 1 || misses.Compulsory != 0 {
		t.Fatalf("post-reset miss classes %+v: warmed branch misclassified as compulsory", misses)
	}
}

func TestUnboundRecorderIsInert(t *testing.T) {
	r := New(Options{})
	// No Bind: every entry point must be a safe no-op.
	for kind := btb.ProbeHit; kind <= btb.ProbePrefetchFill; kind++ {
		r.OnProbe(kind, 1, 0, 0, &btb.Request{PC: 1}, &btb.Entry{}, true)
	}
	r.OnWarmupReset()
	r.OnEpoch(1, btb.NewWithSets(1, 1, policy.NewLRU()))
	r.OnFinish(1, nil)
	if rep := r.Report(1); rep.Accesses != 0 {
		t.Fatalf("unbound recorder counted: %+v", rep)
	}
	// A client can snapshot the recorder before Bind (the HTTP server starts
	// ahead of the simulation): the JSON body must still carry arrays, not
	// nulls.
	body, err := json.Marshal(r.Report(1))
	if err != nil {
		t.Fatalf("marshal unbound report: %v", err)
	}
	for _, field := range []string{"top_branches", "per_set", "recent_decisions", "heat"} {
		if !strings.Contains(string(body), `"`+field+`":[]`) {
			t.Errorf("unbound report %s is not an empty array: %s", field, body)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := New(Options{})
	driveHandChecked(t, r)
	b := btb.NewWithSets(1, 2, policy.NewLRU())
	b.Access(&btb.Request{PC: 5, Target: 9, NextUse: trace.NoNextUse})
	r.OnEpoch(100, b)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		path, wantType string
		wantStatus     int
	}{
		{"/debug/attrib", "application/json", http.StatusOK},
		{"/debug/attrib?top=5", "application/json", http.StatusOK},
		{"/debug/attrib?top=bogus", "text/plain; charset=utf-8", http.StatusBadRequest},
		{"/debug/attrib/heatmap", "text/html; charset=utf-8", http.StatusOK},
		{"/debug/attrib/heatmap.csv", "text/csv", http.StatusOK},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.wantType {
			t.Errorf("GET %s: content type %q, want %q", tc.path, ct, tc.wantType)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/debug/attrib")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode /debug/attrib: %v", err)
	}
	if rep.Policy != "lru" || rep.Misses.Total != 4 || rep.Regret.Charged != 1 {
		t.Fatalf("served report %+v", rep)
	}
	if len(rep.Heat) != 1 || rep.Heat[0].EndInstr != 100 {
		t.Fatalf("served heat %+v", rep.Heat)
	}
}

func TestWriteTextAndHeatCSV(t *testing.T) {
	r := New(Options{})
	driveHandChecked(t, r)
	b := btb.NewWithSets(1, 2, policy.NewLRU())
	r.OnEpoch(42, b)

	var sb strings.Builder
	if err := r.WriteText(&sb, 5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"policy=lru", "compulsory", "conflict", "agree with OPT",
		"charged misses", "0xa",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := r.WriteHeatCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("heat CSV: %d lines, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "end_instr,valid_0") {
		t.Fatalf("heat CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "42,") {
		t.Fatalf("heat CSV row %q", lines[1])
	}
}

// Probes must not allocate once the branch set is warm: decisions are kept
// by value and both audits' per-branch state sits in one table. One step
// drives a recorder bound to both audits through a demand hit, an eviction
// and its insert, and a bypass.
func TestProbesDoNotAllocate(t *testing.T) {
	r := New(Options{})
	hints := &profile.HintTable{Config: profile.DefaultConfig(), Hints: map[uint64]uint8{0x10: profile.Hot}}
	r.Bind("thermometer", 4, 2, 0, hints, AuditRegret|AuditHints)
	reqs := make([]btb.Request, 64)
	for i := range reqs {
		reqs[i] = btb.Request{PC: uint64(0x10 + i), NextUse: i + len(reqs), Index: i, Temperature: uint8(i % 3)}
	}
	victim := &btb.Entry{Valid: true}
	step := func(i int) {
		req := &reqs[i%len(reqs)]
		set := int(req.PC % 4)
		r.OnProbe(btb.ProbeHit, 0, set, 0, req, nil, i%2 == 0)
		victim.PC = reqs[(i+1)%len(reqs)].PC
		r.OnProbe(btb.ProbeEvict, 0, set, 1, req, victim, false)
		r.OnProbe(btb.ProbeInsert, 0, set, 1, req, nil, i%3 == 0)
		r.OnProbe(btb.ProbeBypass, 0, set, -1, &reqs[(i+2)%len(reqs)], nil, true)
	}
	for i := 0; i < 4*len(reqs); i++ {
		step(i)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() { step(i); i++ }); allocs != 0 {
		t.Fatalf("%.2f allocations per step of four probes, want 0", allocs)
	}
	_, hits, misses, regret := r.Counts()
	if hits == 0 || misses.Total == 0 || regret.Evictions == 0 || regret.Bypasses == 0 || regret.Charged == 0 {
		t.Fatalf("steps missed a path: %d hits, %+v, %+v", hits, misses, regret)
	}
	if s := r.HintSummary(); s.Accesses != hits+misses.Total || s.CoverageAccesses == 0 {
		t.Fatalf("hint-quality audit did not score the steps: %+v", s)
	}
}

// A charge to a decision that has left the ring, or that the warm-up reset
// emptied, still counts in Charged, per set and per branch, and leaves the
// decision now in that slot alone.
func TestChargeOutlivesRing(t *testing.T) {
	r := New(Options{})
	r.Bind("lru", 2, 1, 0, nil, AuditRegret)
	idx := 0
	evict := func(victim uint64, set int) {
		idx++
		r.OnProbe(btb.ProbeEvict, uint64(idx), set, 0, &btb.Request{PC: 0x10000 + uint64(idx), Index: idx},
			&btb.Entry{Valid: true, PC: victim}, false)
	}
	// missAt misses on pc in set 1 where the shadow hits, and returns the
	// report that follows.
	missAt := func(pc uint64) *Report {
		r.OnProbe(btb.ProbeInsert, 0, 1, 0, &btb.Request{PC: pc}, nil, true)
		return r.Report(1 << 30)
	}
	check := func(rep *Report, pc uint64) {
		t.Helper()
		if rep.Regret.Charged != 1 || rep.Regret.Unattributed != 0 || rep.PerSet[1].Charged != 1 {
			t.Fatalf("charge to %#x lost: %+v, set 1 %+v", pc, rep.Regret, rep.PerSet[1])
		}
		if len(rep.TopBranches) == 0 || rep.TopBranches[0].PC != pc || rep.TopBranches[0].Charged != 1 {
			t.Fatalf("charge to %#x missing from the branch table: %+v", pc, rep.TopBranches)
		}
		for _, d := range rep.RecentDecisions {
			if d.Regret != 0 {
				t.Fatalf("charge to %#x landed on decision %+v", pc, d)
			}
		}
	}

	evict(0xa, 1)
	for i := 0; i < RingCap; i++ {
		evict(0x20000+uint64(i), 0)
	}
	check(missAt(0xa), 0xa)

	evict(0xb, 1)
	r.OnWarmupReset()
	evict(0x30000, 0)
	check(missAt(0xb), 0xb)
}
