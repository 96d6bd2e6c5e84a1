// Package fabric holds the strict JSON decoders for the four requests a
// sweep coordinator received from its workers: register, heartbeat, lease
// request and completion report. Each decoder rejects unknown fields and
// trailing data, and bounds every collection size before walking it (the
// boundedalloc analyzer's no-trusted-count-preallocation rule); the fuzzers
// in fuzz_test.go hold them to "never panic, and accepted input round-trips".
//
// Deprecated: the coordinator, the worker and thermod's -coordinator and
// -worker modes are gone, because single-node thermod runs the whole paper
// (DESIGN.md §12). Nothing imports this package; it remains only until its
// removal.
package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"thermometer/internal/runner"
)

// Wire bounds. MaxLeaseJobs caps a lease request's max and the results in
// one completion report; MaxJobIndex caps a result's sweep index
// (comfortably above the server's 4096-spec submission cap).
const (
	MaxLeaseJobs = 4096
	MaxJobIndex  = 1 << 20
	// maxWireName bounds free-text identity fields (worker names, IDs).
	maxWireName = 256
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human-readable worker label (host:port, hostname). Optional.
	Name string `json:"name,omitempty"`
}

// Heartbeat is a worker liveness beat (also implicit in every lease and
// complete call).
type Heartbeat struct {
	WorkerID string `json:"worker_id"`
}

// LeaseRequest asks for work. Max caps the grant size (0 means the
// coordinator's configured lease size).
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max,omitempty"`
}

// JobResult is one completed job inside a completion report. State is the
// runner's terminal progress classification ("done" or "failed" — workers
// never report invalid or canceled jobs: specs arrive pre-normalized, and a
// canceled worker abandons its lease instead of reporting).
type JobResult struct {
	Index  int           `json:"index"`
	State  string        `json:"state"`
	Result runner.Result `json:"result"`
}

// CompleteRequest reports the results of (part of) a lease.
type CompleteRequest struct {
	WorkerID string      `json:"worker_id"`
	LeaseID  string      `json:"lease_id"`
	Sweep    string      `json:"sweep"`
	Results  []JobResult `json:"results"`
}

// strictDecode unmarshals JSON with unknown fields rejected and trailing
// garbage refused.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second Decode must hit EOF; anything else is trailing garbage.
	if dec.More() {
		return errors.New("trailing data after message")
	}
	return nil
}

func checkName(field, s string) error {
	if len(s) > maxWireName {
		return fmt.Errorf("%s longer than %d bytes", field, maxWireName)
	}
	return nil
}

// DecodeRegister parses and validates a RegisterRequest.
func DecodeRegister(data []byte) (RegisterRequest, error) {
	var m RegisterRequest
	if err := strictDecode(data, &m); err != nil {
		return RegisterRequest{}, err
	}
	if err := checkName("name", m.Name); err != nil {
		return RegisterRequest{}, err
	}
	return m, nil
}

// DecodeHeartbeat parses and validates a Heartbeat.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	var m Heartbeat
	if err := strictDecode(data, &m); err != nil {
		return Heartbeat{}, err
	}
	if m.WorkerID == "" {
		return Heartbeat{}, errors.New("heartbeat missing worker_id")
	}
	if err := checkName("worker_id", m.WorkerID); err != nil {
		return Heartbeat{}, err
	}
	return m, nil
}

// DecodeLeaseRequest parses and validates a LeaseRequest. Max is clamped to
// [0, MaxLeaseJobs] — a hostile or buggy worker cannot request an unbounded
// grant.
func DecodeLeaseRequest(data []byte) (LeaseRequest, error) {
	var m LeaseRequest
	if err := strictDecode(data, &m); err != nil {
		return LeaseRequest{}, err
	}
	if m.WorkerID == "" {
		return LeaseRequest{}, errors.New("lease request missing worker_id")
	}
	if err := checkName("worker_id", m.WorkerID); err != nil {
		return LeaseRequest{}, err
	}
	if m.Max < 0 || m.Max > MaxLeaseJobs {
		return LeaseRequest{}, fmt.Errorf("lease max %d out of range [0, %d]", m.Max, MaxLeaseJobs)
	}
	return m, nil
}

// DecodeComplete parses and validates a completion report as received by
// the coordinator. The result count is bounded before the slice is walked;
// per-result integrity (key matches the sweep slot's spec) needs the sweep,
// which the decoder does not see.
func DecodeComplete(data []byte) (CompleteRequest, error) {
	var m CompleteRequest
	if err := strictDecode(data, &m); err != nil {
		return CompleteRequest{}, err
	}
	if m.WorkerID == "" || m.LeaseID == "" || m.Sweep == "" {
		return CompleteRequest{}, errors.New("completion missing worker_id, lease_id, or sweep")
	}
	for _, f := range []struct{ name, v string }{
		{"worker_id", m.WorkerID}, {"lease_id", m.LeaseID}, {"sweep", m.Sweep},
	} {
		if err := checkName(f.name, f.v); err != nil {
			return CompleteRequest{}, err
		}
	}
	if len(m.Results) > MaxLeaseJobs {
		return CompleteRequest{}, fmt.Errorf("completion of %d results exceeds the %d-result bound", len(m.Results), MaxLeaseJobs)
	}
	for i := range m.Results {
		r := &m.Results[i]
		if r.Index < 0 || r.Index >= MaxJobIndex {
			return CompleteRequest{}, fmt.Errorf("result %d: index %d out of range [0, %d)", i, r.Index, MaxJobIndex)
		}
		if r.State != runner.ProgressDone && r.State != runner.ProgressFailed {
			return CompleteRequest{}, fmt.Errorf("result %d: state %q (want %q or %q)", i, r.State, runner.ProgressDone, runner.ProgressFailed)
		}
	}
	return m, nil
}
