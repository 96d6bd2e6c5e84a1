// Golden-equivalence tests for the full timing simulation: every policy is
// run through core.Run under a set of configuration variants (base, hints,
// zero-warmup, two-level, partitioned, the Confluence, Shotgun and Twig
// prefetchers, Confluence and Shotgun on a small BTB, observed, audited,
// audited under Confluence and Twig fills, and one per frontend memo-key
// field) and the complete Result — cycle counts, stall attribution, BTB
// stats, policy telemetry, and the observer's JSON/CSV artifacts — is
// fingerprinted against a checked-in golden file. The audited variants also
// hash the attribution and hint-quality reports and CSVs.
//
// The goldens were generated before the restructurings they guard (SoA
// BTB, devirtualized dispatch, fill ring, frontend pass, one record loop)
// and pin them to byte-identical results. Regenerate with:
//
//	go test ./internal/core -run TestGoldenCore -update-golden
package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"thermometer/internal/attribution"
	"thermometer/internal/bpred"
	"thermometer/internal/btb"
	"thermometer/internal/cache"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/prefetch"
	"thermometer/internal/profile"
	"thermometer/internal/telemetry"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

var updateCoreGolden = flag.Bool("update-golden", false, "rewrite the core golden file")

// coreFingerprint captures every externally visible number a simulation
// produces. Struct equality (all fields comparable) is the pass criterion.
type coreFingerprint struct {
	Instructions     uint64    `json:"instructions"`
	Cycles           uint64    `json:"cycles"`
	BTB              btb.Stats `json:"btb"`
	PrefetchFills    uint64    `json:"prefetch_fills"`
	BTBMissRedirects uint64    `json:"btb_miss_redirects"`
	DirLookups       uint64    `json:"dir_lookups"`
	DirMispredicts   uint64    `json:"dir_mispredicts"`
	RASMispredicts   uint64    `json:"ras_mispredicts"`
	IBTBMispredicts  uint64    `json:"ibtb_mispredicts"`
	RedirectStall    uint64    `json:"redirect_stall"`
	ICacheStall      uint64    `json:"icache_stall"`
	DataStall        uint64    `json:"data_stall"`
	StallByLevel     [4]uint64 `json:"stall_by_level"`
	L2iMPKI          float64   `json:"l2i_mpki"`
	InstrL1Misses    uint64    `json:"instr_l1_misses"`
	InstrL2Misses    uint64    `json:"instr_l2_misses"`
	InstrLLCMisses   uint64    `json:"instr_llc_misses"`
	// PolicyCounters flattens policy telemetry (thermometer coverage, SRRIP
	// aging rounds, ...) into a deterministic string.
	PolicyCounters string `json:"policy_counters,omitempty"`
	// TelemetrySHA256 hashes the observer's JSON report + epoch CSV for the
	// observed variant (empty otherwise).
	TelemetrySHA256 string `json:"telemetry_sha256,omitempty"`
	// AuditSHA256 hashes the attached recorders' outputs for the audited
	// variants: attribution Report(20) JSON + heatmap CSV, then hint-quality
	// Report(20) JSON + drift-window CSV (empty otherwise).
	AuditSHA256 string `json:"audit_sha256,omitempty"`
}

var goldenCorePolicies = []struct {
	name string
	mk   func() btb.Policy
}{
	{"lru", func() btb.Policy { return policy.NewLRU() }},
	{"random", func() btb.Policy { return policy.NewRandom() }},
	{"srrip", func() btb.Policy { return policy.NewSRRIP() }},
	{"ghrp", func() btb.Policy { return policy.NewGHRP() }},
	{"hawkeye", func() btb.Policy { return policy.NewHawkeye() }},
	{"opt", func() btb.Policy { return policy.NewOPT() }},
	{"thermometer", func() btb.Policy { return policy.NewThermometer() }},
	{"thermometer-nobypass", func() btb.Policy { return policy.NewThermometerNoBypass() }},
	{"holistic", func() btb.Policy { return policy.NewHolisticOnly() }},
	{"transient", func() btb.Policy { return policy.NewTransientOnly() }},
}

func fingerprintResult(r *core.Result, telemetrySHA, auditSHA string) coreFingerprint {
	fp := coreFingerprint{
		Instructions:     r.Instructions,
		Cycles:           r.Cycles,
		BTB:              r.BTB,
		PrefetchFills:    r.PrefetchFills,
		BTBMissRedirects: r.BTBMissRedirects,
		DirLookups:       r.DirLookups,
		DirMispredicts:   r.DirMispredicts,
		RASMispredicts:   r.RASMispredicts,
		IBTBMispredicts:  r.IBTBMispredicts,
		RedirectStall:    r.RedirectStall,
		ICacheStall:      r.ICacheStall,
		DataStall:        r.DataStall,
		StallByLevel:     r.ICacheStallByLevel,
		L2iMPKI:          r.L2iMPKI,
		InstrL1Misses:    r.InstrL1Misses,
		InstrL2Misses:    r.InstrL2Misses,
		InstrLLCMisses:   r.InstrLLCMisses,
		TelemetrySHA256:  telemetrySHA,
		AuditSHA256:      auditSHA,
	}
	if inst, ok := r.Policy.(policy.Instrumented); ok {
		counters := inst.TelemetryCounters()
		keys := make([]string, 0, len(counters))
		for k := range counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		for _, k := range keys {
			fmt.Fprintf(&buf, "%s=%d;", k, counters[k])
		}
		fp.PolicyCounters = buf.String()
	}
	return fp
}

func TestGoldenCore(t *testing.T) {
	spec, ok := workload.App(workload.AppNames()[0])
	if !ok {
		t.Fatal("no workloads registered")
	}
	tr := spec.ScaleLength(1, 20).Generate(0)
	hints, _, err := profile.ProfileTrace(tr, 8192, 4, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// The small-BTB prefetch variants run a 1024-entry BTB, where fills
	// evict often enough to exercise the fill path's policy decisions; their
	// hints are profiled at that geometry.
	smallHints, _, err := profile.ProfileTrace(tr, 1024, 4, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	type variant struct {
		name    string
		cfg     func() core.Config
		obs     bool
		att, hq bool
	}
	hinted := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Hints = hints
		return cfg
	}
	// Twig is trained on another input of the same app, as Fig 21 trains
	// it on the profiling input.
	twig := prefetch.TrainTwig(spec.ScaleLength(1, 20).Generate(1), prefetch.TwigConfig{Entries: 8192, Ways: 4})
	variants := []variant{
		{"base", func() core.Config { return core.DefaultConfig() }, false, false, false},
		{"hints", hinted, false, false, false},
		{"warmup0", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Hints = hints
			cfg.WarmupFrac = 0
			return cfg
		}, false, false, false},
		{"twolevel", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Hints = hints
			cfg.TwoLevelBTB = core.DefaultTwoLevelBTB()
			return cfg
		}, false, false, false},
		{"shotgun", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Hints = hints
			cfg.ShotgunPartition = true
			return cfg
		}, false, false, false},
		{"prefetch", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Hints = hints
			cfg.Prefetcher = prefetch.NewConfluence(core.BuildMeta(tr.AccessStream()))
			return cfg
		}, false, false, false},
		{"prefetch-shotgun", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Hints = hints
			cfg.Prefetcher = prefetch.NewShotgun(core.BuildMeta(tr.AccessStream()))
			cfg.ShotgunPartition = true
			return cfg
		}, false, false, false},
		{"prefetch-twig", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Hints = hints
			cfg.Prefetcher = twig
			return cfg
		}, false, false, false},
		{"prefetch-small", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.BTBEntries = 1024
			cfg.Hints = smallHints
			cfg.Prefetcher = prefetch.NewConfluence(core.BuildMeta(tr.AccessStream()))
			return cfg
		}, false, false, false},
		{"prefetch-shotgun-small", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.BTBEntries = 1024
			cfg.Hints = smallHints
			cfg.Prefetcher = prefetch.NewShotgun(core.BuildMeta(tr.AccessStream()))
			cfg.ShotgunPartition = true
			return cfg
		}, false, false, false},
		// A prefetcher with an observer runs both the fill and the
		// telemetry hooks.
		{"prefetch-observed", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Hints = hints
			cfg.Prefetcher = prefetch.NewConfluence(core.BuildMeta(tr.AccessStream()))
			return cfg
		}, true, false, false},
		{"observed", hinted, true, false, false},
		{"attrib", hinted, false, true, false},
		{"hintqual", hinted, false, false, true},
		{"audited", hinted, true, true, true},
		// The audits under prefetch fills: fill probes, fill-driven
		// evictions, and prefetched branches the run never demand-accesses
		// reach both recorders.
		{"audited-prefetch-small", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.BTBEntries = 1024
			cfg.Hints = smallHints
			cfg.Prefetcher = prefetch.NewConfluence(core.BuildMeta(tr.AccessStream()))
			return cfg
		}, true, true, true},
		{"audited-prefetch-twig", func() core.Config {
			cfg := core.DefaultConfig()
			cfg.Hints = hints
			cfg.Prefetcher = twig
			return cfg
		}, true, true, true},
	}
	// Each of these changes one Config field that feeds the BTB-independent
	// frontend (direction predictor, RAS/IBTB, I-cache walk, data loads), so
	// a run that reused another configuration's frontend outcomes on this
	// same trace would diverge from its golden entry.
	frontend := func(name string, set func(*core.Config)) variant {
		return variant{name, func() core.Config {
			cfg := hinted()
			set(&cfg)
			return cfg
		}, false, false, false}
	}
	variants = append(variants,
		frontend("perfectbp", func(c *core.Config) { c.PerfectBP = true }),
		frontend("perfecticache", func(c *core.Config) { c.PerfectICache = true }),
		frontend("nodata", func(c *core.Config) { c.DataStalls = false }),
		frontend("gshare", func(c *core.Config) {
			c.NewPredictor = func() bpred.Predictor { return bpred.NewGshare(14) }
		}),
		frontend("latencies", func(c *core.Config) {
			c.Latencies = cache.Latencies{L2Hit: 18, LLCHit: 50, Memory: 300}
		}),
		frontend("mlp", func(c *core.Config) { c.MLP = 2 }),
		frontend("footprint", func(c *core.Config) { c.DataFootprint = 8 << 20 }),
		frontend("ibtb", func(c *core.Config) { c.IBTBEntries = 512 }),
		frontend("ras", func(c *core.Config) { c.RASEntries = 8 }),
	)

	got := make(map[string]coreFingerprint)
	for _, p := range goldenCorePolicies {
		for _, v := range variants {
			cfg := v.cfg()
			if v.att {
				cfg.Attribution = attribution.New(attribution.Options{})
			}
			if v.hq {
				cfg.HintQual = attribution.New(attribution.Options{})
			}
			got[p.name+"/"+v.name] = runFingerprint(t, tr, cfg, p.mk, v.obs)
		}
	}

	path := filepath.Join("testdata", "golden_core.json")
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *updateCoreGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d configurations)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var wantMap map[string]coreFingerprint
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	for k, w := range wantMap {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: configuration missing from this run", k)
			continue
		}
		if g != w {
			t.Errorf("%s: simulation diverged from golden\n got:  %+v\n want: %+v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := wantMap[k]; !ok {
			t.Errorf("%s: configuration missing from golden file (run -update-golden)", k)
		}
	}
}

// runFingerprint runs cfg under the policy mk makes, with an observer when
// obs is set, and fingerprints the result, the observer's JSON report and
// epoch CSV, and the outputs of the recorders attached to cfg.
func runFingerprint(t *testing.T, tr *trace.Trace, cfg core.Config, mk func() btb.Policy, obs bool) coreFingerprint {
	t.Helper()
	cfg.NewPolicy = mk
	var o *telemetry.Observer
	if obs {
		o = telemetry.New(telemetry.Options{EpochInterval: 5000, EventCap: 1 << 12})
		cfg.Observer = o
	}
	r := core.Run(tr, cfg)
	telemetrySHA := ""
	if obs {
		var j bytes.Buffer
		if err := o.WriteJSON(&j, map[string]string{"trace": tr.Name, "test": "golden"}); err != nil {
			t.Fatalf("telemetry JSON: %v", err)
		}
		var c bytes.Buffer
		if err := o.Epochs.WriteCSV(&c); err != nil {
			t.Fatalf("epoch CSV: %v", err)
		}
		h := sha256.New()
		h.Write(j.Bytes())
		h.Write(c.Bytes())
		telemetrySHA = hex.EncodeToString(h.Sum(nil))
	}
	auditSHA := ""
	if cfg.Attribution != nil || cfg.HintQual != nil {
		auditSHA = auditHash(t, cfg.Attribution, cfg.HintQual)
	}
	return fingerprintResult(r, telemetrySHA, auditSHA)
}

// A recorder attached through both Config fields runs both audits as one
// consumer. For every golden policy its run must reproduce the golden
// "audited" entry, which two recorders, one per field, produced: the
// result, the telemetry hash and the audit hash.
func TestSharedRecorderMatchesTwo(t *testing.T) {
	spec, _ := workload.App(workload.AppNames()[0])
	tr := spec.ScaleLength(1, 20).Generate(0)
	hints, _, err := profile.ProfileTrace(tr, 8192, 4, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_core.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]coreFingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, p := range goldenCorePolicies {
		cfg := core.DefaultConfig()
		cfg.Hints = hints
		rec := attribution.New(attribution.Options{})
		cfg.Attribution, cfg.HintQual = rec, rec
		if got := runFingerprint(t, tr, cfg, p.mk, true); got != want[p.name+"/audited"] {
			t.Errorf("%s: one recorder through both fields diverged from two\n got:  %+v\n want: %+v",
				p.name, got, want[p.name+"/audited"])
		}
	}
}

// auditHash fingerprints the attached recorders' reports and CSVs.
func auditHash(t *testing.T, att, hq *attribution.Recorder) string {
	t.Helper()
	h := sha256.New()
	if att != nil {
		j, err := json.Marshal(att.Report(20))
		if err != nil {
			t.Fatalf("attribution report JSON: %v", err)
		}
		h.Write(j)
		if err := att.WriteHeatCSV(h); err != nil {
			t.Fatalf("heatmap CSV: %v", err)
		}
	}
	if hq != nil {
		j, err := json.Marshal(hq.HintReport(20))
		if err != nil {
			t.Fatalf("hint-quality report JSON: %v", err)
		}
		h.Write(j)
		if err := hq.WriteWindowsCSV(h); err != nil {
			t.Fatalf("drift-window CSV: %v", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
