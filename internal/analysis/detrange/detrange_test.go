package detrange

import (
	"regexp"
	"testing"

	"thermometer/internal/analysis/analysistest"
)

func TestDetrange(t *testing.T) {
	defer func(old *regexp.Regexp) { Scope = old }(Scope)
	Scope = regexp.MustCompile(`^detrangetest$`)
	analysistest.Run(t, "testdata", Analyzer, "detrangetest")
}

// TestScopeCoversSimulationOutput pins the packages whose output must not
// depend on map order. attribution is among them: the recorder's regret and
// hint-quality reports and its heatmap CSV are simulation output.
func TestScopeCoversSimulationOutput(t *testing.T) {
	for _, pkg := range []string{
		"thermometer/internal/attribution",
		"thermometer/internal/core",
		"thermometer/internal/profile",
		"thermometer/internal/experiments",
	} {
		if !Scope.MatchString(pkg) {
			t.Errorf("%s must be subject to the detrange contract", pkg)
		}
	}
}
