package fabric

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"thermometer/internal/runner"
)

func TestStrictDecodeRejectsSloppyInput(t *testing.T) {
	cases := []struct{ name, in string }{
		{"unknown field", `{"worker_id":"w-000001","extra":1}`},
		{"trailing data", `{"worker_id":"w-000001"} {"worker_id":"w-000002"}`},
		{"wrong type", `{"worker_id":42}`},
		{"empty", ``},
		{"not json", `worker_id`},
	}
	for _, tc := range cases {
		if _, err := DecodeHeartbeat([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		}
	}
}

func TestDecodeHeartbeat(t *testing.T) {
	hb, err := DecodeHeartbeat([]byte(`{"worker_id":"w-000001"}`))
	if err != nil || hb.WorkerID != "w-000001" {
		t.Fatalf("got %+v, %v", hb, err)
	}
	if _, err := DecodeHeartbeat([]byte(`{}`)); err == nil {
		t.Fatal("missing worker_id accepted")
	}
	long := fmt.Sprintf(`{"worker_id":%q}`, strings.Repeat("x", maxWireName+1))
	if _, err := DecodeHeartbeat([]byte(long)); err == nil {
		t.Fatal("oversized worker_id accepted")
	}
}

func TestDecodeLeaseRequestClampsMax(t *testing.T) {
	ok, err := DecodeLeaseRequest([]byte(`{"worker_id":"w-000001","max":8}`))
	if err != nil || ok.Max != 8 {
		t.Fatalf("got %+v, %v", ok, err)
	}
	for _, in := range []string{
		`{"worker_id":"w-000001","max":-1}`,
		fmt.Sprintf(`{"worker_id":"w-000001","max":%d}`, MaxLeaseJobs+1),
		`{"max":1}`,
	} {
		if _, err := DecodeLeaseRequest([]byte(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestDecodeComplete(t *testing.T) {
	req := CompleteRequest{
		WorkerID: "w-000001", LeaseID: "lease-000001", Sweep: "sweep-000001",
		Results: []JobResult{{Index: 0, State: runner.ProgressDone,
			Result: runner.Result{Key: "k", Outcome: &runner.Outcome{Instructions: 1}}}},
	}
	b, _ := json.Marshal(req)
	got, err := DecodeComplete(b)
	if err != nil || len(got.Results) != 1 || got.Results[0].Result.Outcome.Instructions != 1 {
		t.Fatalf("round-trip: %+v, %v", got, err)
	}

	bad := []string{
		`{"worker_id":"w","lease_id":"l","sweep":""}`,
		`{"worker_id":"w","lease_id":"l","sweep":"s","results":[{"index":0,"state":"canceled","result":{}}]}`,
		`{"worker_id":"w","lease_id":"l","sweep":"s","results":[{"index":0,"state":"started","result":{}}]}`,
		`{"worker_id":"w","lease_id":"l","sweep":"s","results":[{"index":-1,"state":"done","result":{}}]}`,
	}
	for _, in := range bad {
		if _, err := DecodeComplete([]byte(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestDecodeRegister(t *testing.T) {
	r, err := DecodeRegister([]byte(`{"name":"rack7"}`))
	if err != nil || r.Name != "rack7" {
		t.Fatalf("got %+v, %v", r, err)
	}
	if _, err := DecodeRegister([]byte(`{}`)); err != nil {
		t.Fatalf("anonymous register rejected: %v", err)
	}
	long := fmt.Sprintf(`{"name":%q}`, strings.Repeat("x", maxWireName+1))
	if _, err := DecodeRegister([]byte(long)); err == nil {
		t.Fatal("oversized name accepted")
	}
}
