package experiments

import (
	"thermometer/internal/btb"
	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/profile"
)

func init() {
	Registry["ablations"] = Ablations
}

// Ablations quantifies Thermometer's individual design choices beyond the
// paper's own ablation (Fig 16):
//
//   - bypass (Alg. 1 line 5-6) on vs off;
//   - LRU tie-breaking vs FIFO tie-breaking (holistic-only);
//   - the default warm fallback for unprofiled branches vs a cold fallback.
//
// Reported as speedup (%) over LRU on a subset of applications.
func Ablations(c *Context) []*Table {
	cfg := core.DefaultConfig()
	coldCfg := profile.DefaultConfig()
	coldCfg.DefaultCategory = profile.Cold
	return c.appTable(&Table{
		ID:    "ablations",
		Title: "Design-choice ablations: speedup (%) over LRU",
		Header: []string{"app", "Thermometer", "no-bypass", "FIFO-ties",
			"cold-default"},
		Notes: []string{"bypass (Alg. 1 line 5-6) is load-bearing (~2pp of speedup); the tie-break choice and the unprofiled-branch fallback matter little when the profile matches the input"},
	}, []string{"cassandra", "mediawiki", "tomcat", "wordpress"}, false, func(app string) []float64 {
		tr := c.AppTrace(app, 0)
		ht := c.Hints(app, 0, cfg.BTBEntries, cfg.BTBWays, profile.DefaultConfig())
		htCold := c.Hints(app, 0, cfg.BTBEntries, cfg.BTBWays, coldCfg)

		lru := runPolicy(tr, nil, nil, nil)
		sp := func(newPolicy func() btb.Policy, hints *profile.HintTable) float64 {
			return core.Speedup(lru, runPolicy(tr, newPolicy, hints, nil))
		}
		return []float64{
			sp(thermNew, ht),
			sp(func() btb.Policy { return policy.NewThermometerNoBypass() }, ht),
			sp(func() btb.Policy { return policy.NewHolisticOnly() }, ht),
			sp(thermNew, htCold),
		}
	})
}
