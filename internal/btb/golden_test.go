// Golden-equivalence tests for the BTB core: a deterministic synthetic
// request stream is driven through every replacement policy and several
// geometries (power-of-two and non-power-of-two set counts), and the full
// per-access event sequence — hit/way/bypass results, probe events, eviction
// victims, lookups, and the final structural census — is hashed and compared
// against a checked-in golden file.
//
// The goldens were generated from the original []Entry (AoS) implementation;
// they pin the struct-of-arrays storage to byte-identical behaviour.
// Regenerate with:
//
//	go test ./internal/btb -run TestGoldenBTB -update-golden
package btb_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/trace"
	"thermometer/internal/xrand"
)

var updateBTBGolden = flag.Bool("update-golden", false, "rewrite the BTB golden file")

// btbFingerprint is the per-configuration digest stored in the golden file.
type btbFingerprint struct {
	// EventsSHA256 hashes the entire per-access event log: access results,
	// probe callbacks, lookup results, and prefetch-fill outcomes.
	EventsSHA256 string    `json:"events_sha256"`
	Stats        btb.Stats `json:"stats"`
	Occupancy    float64   `json:"occupancy"`
	CensusValid  uint64    `json:"census_valid"`
	CensusByTemp [4]uint64 `json:"census_by_temp"`
	// FirstSet / LastSet are the formatted contents of the first and last
	// sets, pinning Contents and insertion order.
	FirstSet string `json:"first_set"`
	LastSet  string `json:"last_set"`
}

var goldenPolicies = []struct {
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

var goldenGeometries = []struct {
	name  string
	sets  int
	ways  int
	probe bool // attach a hashing probe (pins the probe event stream)
}{
	{"pow2-64x4", 64, 4, true},
	{"prime-499x4", 499, 4, false},
	{"paper-1994x4", 7979 / 4, 4, true}, // the 7979-entry Fig 11 geometry
	{"wide-4x64", 4, 64, false},
}

// goldenStream builds a deterministic access stream with realistic reuse
// (Zipf-distributed PC pool) and a correct next-use oracle, so OPT exercises
// both eviction and bypass.
type goldenAccess struct {
	pc, target uint64
	typ        trace.BranchType
	temp       uint8
	nextUse    int
}

func goldenStream(seed uint64, capacity, n int) []goldenAccess {
	rng := xrand.New(seed)
	pool := make([]uint64, 3*capacity)
	for i := range pool {
		pool[i] = 0x400000 + rng.Uint64n(1<<30)
	}
	z := xrand.NewZipf(len(pool), 1.1)
	seq := make([]goldenAccess, n)
	for i := range seq {
		pc := pool[z.Sample(rng)]
		seq[i] = goldenAccess{
			pc:     pc,
			target: pc ^ (xrand.Mix64(pc) & 0xfffff),
			typ:    trace.BranchType(xrand.Mix64(pc^0xBEEF) % 6),
			// Temperatures deliberately exceed the 2-bit range: profile
			// category counts are configurable (fig20), so storage must not
			// clip them.
			temp: uint8(xrand.Mix64(pc^0x7E39) % 6),
		}
		if rng.Bool(0.1) {
			// Occasionally retarget (exercises TargetUpdates on hits).
			seq[i].target = pc ^ uint64(rng.Uint64n(1<<20)|1)
		}
	}
	last := make(map[uint64]int, len(pool))
	for i := n - 1; i >= 0; i-- {
		if j, ok := last[seq[i].pc]; ok {
			seq[i].nextUse = j
		} else {
			seq[i].nextUse = trace.NoNextUse
		}
		last[seq[i].pc] = i
	}
	return seq
}

func driveBTB(b *btb.BTB, seq []goldenAccess, withProbe bool, h hash.Hash) {
	if withProbe {
		b.SetProbe(func(kind btb.ProbeKind, set, way int, req *btb.Request, victim *btb.Entry) {
			if victim != nil {
				fmt.Fprintf(h, "P %d %d %d %x v=%x/%d/%v\n", kind, set, way, req.PC, victim.PC, victim.Temperature, victim.Valid)
			} else {
				fmt.Fprintf(h, "P %d %d %d %x t=%x temp=%d pf=%v\n", kind, set, way, req.PC, req.Target, req.Temperature, req.Prefetch)
			}
		})
	}
	for i := range seq {
		a := &seq[i]
		req := btb.Request{
			PC: a.pc, Target: a.target, Type: a.typ, Temperature: a.temp,
			NextUse: a.nextUse, Index: i,
		}
		if i%13 == 5 {
			req.Prefetch = true
			filled := b.PrefetchFill(&req)
			fmt.Fprintf(h, "F %d %v\n", i, filled)
			continue
		}
		r := b.Access(&req)
		fmt.Fprintf(h, "A %d %v %v %d e=%v/%x/%d\n",
			i, r.Hit, r.Bypassed, r.Way, r.Evicted.Valid, r.Evicted.PC, r.Evicted.Temperature)
		if i%7 == 3 {
			tgt, ok := b.Lookup(a.pc)
			fmt.Fprintf(h, "L %d %x %v\n", i, tgt, ok)
		}
	}
}

func formatSet(b *btb.BTB, set int) string {
	s := ""
	for _, e := range b.Contents(set) {
		s += fmt.Sprintf("[%v %x %x %d %d]", e.Valid, e.PC, e.Target, e.Type, e.Temperature)
	}
	return s
}

func TestGoldenBTB(t *testing.T) {
	got := make(map[string]btbFingerprint)
	for _, g := range goldenGeometries {
		seq := goldenStream(0xB7B<<16|uint64(g.sets), g.sets*g.ways, 6000)
		for _, p := range goldenPolicies {
			b := btb.NewWithSets(g.sets, g.ways, p.mk())
			h := sha256.New()
			driveBTB(b, seq, g.probe, h)
			valid, byTemp := b.TemperatureCensus()
			cv, ct := b.SetCensus(0)
			fmt.Fprintf(h, "S %d %d\n", cv, ct)
			got[g.name+"/"+p.name] = btbFingerprint{
				EventsSHA256: hex.EncodeToString(h.Sum(nil)),
				Stats:        b.Stats(),
				Occupancy:    b.Occupancy(),
				CensusValid:  valid,
				CensusByTemp: byTemp,
				FirstSet:     formatSet(b, 0),
				LastSet:      formatSet(b, b.Sets()-1),
			}
		}
	}

	path := filepath.Join("testdata", "golden_btb.json")
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *updateBTBGolden {
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
	var wantMap map[string]btbFingerprint
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
			t.Errorf("%s: behaviour diverged from golden\n got:  %+v\n want: %+v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := wantMap[k]; !ok {
			t.Errorf("%s: configuration missing from golden file (run -update-golden)", k)
		}
	}
}
