package noambient

import (
	"regexp"
	"testing"

	"thermometer/internal/analysis/analysistest"
)

func TestNoambient(t *testing.T) {
	defer func(oldScope, oldExempt *regexp.Regexp) {
		Scope, Exempt = oldScope, oldExempt
	}(Scope, Exempt)
	Scope = regexp.MustCompile(`^noamb`)
	Exempt = regexp.MustCompile(`^noambexempt$`)
	analysistest.Run(t, "testdata", Analyzer, "noambtest", "noambexempt")
}

// TestScopeContract pins which packages the determinism contract covers.
// internal/runner MUST stay in scope: cached results are only sound if job
// execution never reads the wall clock. internal/server is exempt because
// it owns the job envelope timestamps. Deleting runner from scope or adding
// it to the exemption list should be a deliberate, reviewed decision.
func TestScopeContract(t *testing.T) {
	inScope := []string{
		"thermometer/internal/runner",
		"thermometer/internal/core",
		"thermometer/internal/policy",
		"thermometer/internal/experiments",
	}
	for _, pkg := range inScope {
		if !Scope.MatchString(pkg) || Exempt.MatchString(pkg) {
			t.Errorf("%s must be subject to the noambient contract", pkg)
		}
	}
	exempt := []string{
		"thermometer/internal/server",
		"thermometer/internal/telemetry",
		"thermometer/internal/xrand",
	}
	for _, pkg := range exempt {
		if !Exempt.MatchString(pkg) {
			t.Errorf("%s must be exempt from the noambient contract", pkg)
		}
	}
	// The exemption is exact-segment: a nested runner package under server
	// would be exempt, but "serverless" or "runnerx" style prefixes are not.
	if Exempt.MatchString("thermometer/internal/serverless") {
		t.Error("exemption must match the server path segment exactly")
	}
	// The telemetry exemption must not leak into its subtree, and must not
	// match prefix lookalikes.
	if Exempt.MatchString("thermometer/internal/telemetry/sub") {
		t.Error("telemetry exemption must not cover a subpackage")
	}
	if Exempt.MatchString("thermometer/internal/telemetryx") {
		t.Error("exemption must match the telemetry path segment exactly")
	}
}
