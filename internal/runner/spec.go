package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"thermometer/internal/core"
	"thermometer/internal/policy"
	"thermometer/internal/workload"
)

// Suite and mode values accepted by Spec.
const (
	SuiteApp  = "app"  // the 13 data center applications (by name)
	SuiteCBP5 = "cbp5" // CBP-5-style traces (by index)
	SuiteIPC1 = "ipc1" // IPC-1-style traces (by index)

	ModeTiming = "timing" // full timing simulation (core.Run)
	ModeReplay = "replay" // BTB-only access replay (replay.Run)
)

// Spec is one simulation job: a plain-data configuration from which the
// result is a pure function. The canonical JSON encoding of a normalized
// Spec (defaults filled in, fields in the fixed order below) is the cache
// identity; see Key.
type Spec struct {
	// Suite selects the trace family: "app" (default when App is set),
	// "cbp5", or "ipc1".
	Suite string `json:"suite,omitempty"`
	// App names a data center application (Suite "app").
	App string `json:"app,omitempty"`
	// Index selects the trace within the cbp5/ipc1 suites.
	Index int `json:"index,omitempty"`
	// Input selects the application input set (0 = the training input).
	Input int `json:"input,omitempty"`
	// Scale divides the trace length (1 = the full 400K-record traces).
	Scale int `json:"scale,omitempty"`

	// Mode is "timing" (default) or "replay".
	Mode string `json:"mode,omitempty"`
	// Policy is the BTB replacement policy; see policy.Names.
	Policy string `json:"policy,omitempty"`
	// Hints attaches profile-guided temperature hints (profiled offline at
	// the job's BTB geometry, or HintEntries when set).
	Hints bool `json:"hints,omitempty"`
	// HintQual audits the attached hint table live (see package hintqual)
	// and embeds the hint-quality summary in the outcome. Requires Hints
	// and timing mode. The audit is a pure tap: the simulated numbers are
	// byte-identical with or without it.
	HintQual bool `json:"hintqual,omitempty"`

	// BTBEntries/BTBWays give the BTB geometry (default Table 1: 8192×4).
	BTBEntries int `json:"btb_entries,omitempty"`
	BTBWays    int `json:"btb_ways,omitempty"`
	// BTBSets, when nonzero, overrides the derived set count (the paper's
	// storage-equalized 7979-entry variant needs a non-power-of-two BTB).
	BTBSets int `json:"btb_sets,omitempty"`
	// HintEntries, when nonzero, profiles hints at this entry count
	// instead of BTBEntries.
	HintEntries int `json:"hint_entries,omitempty"`
}

// Normalized returns a copy of the spec with defaults applied, or an error
// describing why the spec is invalid. Two specs that normalize to the same
// value are the same job and share a cache entry.
func (s Spec) Normalized() (Spec, error) {
	if s.Suite == "" {
		s.Suite = SuiteApp
	}
	if s.Mode == "" {
		s.Mode = ModeTiming
	}
	if s.Policy == "" {
		s.Policy = "lru"
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	def := core.DefaultConfig()
	if s.BTBEntries <= 0 {
		s.BTBEntries = def.BTBEntries
	}
	if s.BTBWays <= 0 {
		s.BTBWays = def.BTBWays
	}

	switch s.Suite {
	case SuiteApp:
		if s.App == "" {
			return s, fmt.Errorf("suite %q requires an app name", s.Suite)
		}
		if _, ok := workload.App(s.App); !ok {
			return s, fmt.Errorf("unknown app %q", s.App)
		}
		if s.Index != 0 {
			return s, fmt.Errorf("index %d is only valid for the cbp5/ipc1 suites", s.Index)
		}
	case SuiteCBP5, SuiteIPC1:
		if s.App != "" {
			return s, fmt.Errorf("app %q is only valid for the app suite", s.App)
		}
		if s.Input != 0 {
			return s, fmt.Errorf("input %d is only valid for the app suite", s.Input)
		}
		max := workload.CBP5Count
		if s.Suite == SuiteIPC1 {
			max = workload.IPC1Count
		}
		if s.Index < 0 || s.Index >= max {
			return s, fmt.Errorf("%s index %d out of range [0, %d)", s.Suite, s.Index, max)
		}
	default:
		return s, fmt.Errorf("unknown suite %q (want app, cbp5, or ipc1)", s.Suite)
	}
	if s.Input < 0 || s.Input > 3 {
		return s, fmt.Errorf("input %d out of range [0, 3]", s.Input)
	}
	if s.Mode != ModeTiming && s.Mode != ModeReplay {
		return s, fmt.Errorf("unknown mode %q (want timing or replay)", s.Mode)
	}
	if _, err := policy.ByName(s.Policy); err != nil {
		return s, err
	}
	if s.BTBWays > s.BTBEntries {
		return s, fmt.Errorf("btb_ways %d exceeds btb_entries %d", s.BTBWays, s.BTBEntries)
	}
	if s.BTBSets < 0 || s.HintEntries < 0 {
		return s, fmt.Errorf("btb_sets and hint_entries must be non-negative")
	}
	if s.HintQual {
		if !s.Hints {
			return s, fmt.Errorf("hintqual requires hints (there is no hint table to audit)")
		}
		if s.Mode != ModeTiming {
			return s, fmt.Errorf("hintqual requires timing mode")
		}
	}
	return s, nil
}

// CanonicalJSON returns the spec's canonical encoding: the normalized spec
// marshaled compactly with fields in declaration order and defaults
// explicit. Submissions that differ only in key order, whitespace, or
// omitted-vs-explicit defaults canonicalize identically.
func (s Spec) CanonicalJSON() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Key returns the spec's content address: the SHA-256 of its canonical
// JSON, in hex. It panics on invalid specs — validate with Normalized
// first.
func (s Spec) Key() string {
	b, err := s.CanonicalJSON()
	if err != nil {
		panic("runner: Key of invalid spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TraceName returns the human-readable name of the trace the spec runs.
func (s Spec) TraceName() string {
	switch s.Suite {
	case SuiteCBP5:
		return fmt.Sprintf("cbp5_%03d", s.Index)
	case SuiteIPC1:
		return fmt.Sprintf("ipc1_%03d", s.Index)
	default:
		if s.Input != 0 {
			return fmt.Sprintf("%s#%d", s.App, s.Input)
		}
		return s.App
	}
}
