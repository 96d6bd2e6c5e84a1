package experiments

import (
	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
)

func init() {
	Registry["twolevel"] = TwoLevel
}

// TwoLevel validates the paper's §5 claim that multi-level/compressed BTB
// organizations are orthogonal to Thermometer: a 1K+8K two-level BTB still
// benefits from temperature-guided replacement at both levels, roughly as
// much as the monolithic 8K BTB does.
func TwoLevel(c *Context) []*Table {
	cfg := core.DefaultConfig()
	return c.appTable(&Table{
		ID:    "twolevel",
		Title: "Two-level BTB (1K L1 + 8K L2): speedup (%) over each organization's LRU",
		Header: []string{"app", "mono-Therm", "mono-OPT", "2L-Therm", "2L-OPT",
			"2L-LRU vs mono-LRU"},
		Notes: []string{"temperature hints keep paying off under a two-level organization (paper §5: orthogonal techniques)"},
	}, []string{"cassandra", "mediawiki", "tomcat", "wordpress"}, false, func(app string) []float64 {
		tr := c.AppTrace(app, 0)
		ht := c.Hints(app, 0, cfg.BTBEntries, cfg.BTBWays, profile.DefaultConfig())

		monoLRU := runPolicy(tr, nil, nil, nil)
		twoLvl := func(cc *core.Config) { cc.TwoLevelBTB = true }
		tlLRU := runPolicy(tr, func() btb.Policy { return policy.NewLRU() }, nil, twoLvl)
		return []float64{
			core.Speedup(monoLRU, runPolicy(tr, thermNew, ht, nil)),
			core.Speedup(monoLRU, runPolicy(tr, optNew, nil, nil)),
			core.Speedup(tlLRU, runPolicy(tr, thermNew, ht, twoLvl)),
			core.Speedup(tlLRU, runPolicy(tr, optNew, nil, twoLvl)),
			core.Speedup(monoLRU, tlLRU),
		}
	})
}
