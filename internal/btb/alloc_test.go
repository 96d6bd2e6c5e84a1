package btb_test

import (
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/trace"
)

// pinZeroAllocs asserts fn performs no heap allocation per invocation,
// pinning the steady-state contract of the SoA BTB: requests are copied
// into BTB-owned scratch.
func pinZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm up: first call may grow internal scratch
	if avg := testing.AllocsPerRun(200, fn); avg != 0 {
		t.Errorf("%s: %v allocs per run, want 0", name, avg)
	}
}

func accessDriver(b *btb.BTB) func() {
	i := 0
	return func() {
		pc := uint64(0x1000 + (i%512)*64)
		req := btb.Request{
			PC:          pc,
			Target:      pc ^ 0xfff0,
			Type:        trace.UncondDirect,
			NextUse:     i + 7,
			Index:       i,
			Temperature: uint8(i % 4),
		}
		b.Access(&req)
		if i%5 == 0 {
			req.Prefetch = true
			req.PC ^= 0x40
			b.PrefetchFill(&req)
		}
		b.Lookup(pc)
		i++
	}
}

// TestAccessDoesNotAllocate pins btb.Access, PrefetchFill, and Lookup at
// zero allocations for six policies. The -fastpath/-generic suffixes are
// kept as stable subtest names; every policy takes the same path.
func TestAccessDoesNotAllocate(t *testing.T) {
	cases := []struct {
		name string
		pol  btb.Policy
	}{
		{"lru-fastpath", policy.NewLRU()},
		{"srrip-fastpath", policy.NewSRRIP()},
		{"thermometer-fastpath", policy.NewThermometer()},
		{"opt-fastpath", policy.NewOPT()},
		{"ghrp-generic", policy.NewGHRP()},
		{"hawkeye-generic", policy.NewHawkeye()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := btb.New(256, 4, tc.pol)
			pinZeroAllocs(t, tc.name, accessDriver(b))
		})
	}
}

// TestProbedAccessDoesNotAllocate pins Access and PrefetchFill with a probe
// attached, as the golden fingerprint tests and telemetry run them.
func TestProbedAccessDoesNotAllocate(t *testing.T) {
	b := btb.New(256, 4, policy.NewLRU())
	var events uint64
	b.SetProbe(func(kind btb.ProbeKind, set, way int, req *btb.Request, evicted *btb.Entry) {
		events++
	})
	pinZeroAllocs(t, "probed", accessDriver(b))
	if events == 0 {
		t.Fatal("probe never fired")
	}
}
