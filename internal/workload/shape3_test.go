package workload

import (
	"testing"

	"thermometer/internal/btb"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
)

// TestCategoryBreakdownDiagnostics splits misses by temperature category to
// show where Thermometer loses ground to OPT.
func TestCategoryBreakdownDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostics only")
	}
	const entries, ways = 8192, 4
	for _, name := range []string{"cassandra", "wordpress"} {
		spec, _ := App(name)
		tr := spec.Generate(0)
		acc := tr.AccessStream()
		ht, res, err := profile.ProfileTrace(tr, entries, ways, profile.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var statics [3]int
		for _, c := range ht.Hints {
			statics[c]++
		}
		var dyn, missTherm, missOPT [3]uint64

		b := btb.New(entries, ways, policy.NewThermometer())
		for i := range acc {
			a := &acc[i]
			cat := ht.Lookup(a.PC)
			dyn[cat]++
			r := b.Access(&btb.Request{
				PC: a.PC, Target: a.Target, Type: a.Type,
				NextUse: a.NextUse, Index: i, Temperature: cat,
			})
			if !r.Hit {
				missTherm[cat]++
			}
		}
		for _, bp := range res.PerBranch {
			missOPT[ht.Lookup(bp.PC)] += bp.Taken - bp.Hits
		}
		for c, lbl := range []string{"cold", "warm", "hot"} {
			t.Logf("%-10s %-4s: static=%6d dyn=%8d missTherm=%7d missOPT=%7d",
				name, lbl, statics[c], dyn[c], missTherm[c], missOPT[c])
		}
	}
}
