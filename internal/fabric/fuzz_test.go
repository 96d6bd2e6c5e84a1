package fabric

import (
	"encoding/json"
	"reflect"
	"testing"
)

// The fabric wire fuzzers hold every decoder to the same contract as the
// repo's trace/profile fuzzers: never panic, never allocate proportionally
// to an attacker-declared count (boundedalloc's rule — the decoders bound
// len() before walking), and accepted input must survive an encode/decode
// round trip unchanged. The seed corpus under testdata/fuzz/ checks in the
// interesting shapes: valid messages, boundary counts, and the malformed
// inputs the unit tests pin.

func roundTrip[T any](t *testing.T, decode func([]byte) (T, error), v T) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("re-encoding accepted message: %v", err)
	}
	v2, err := decode(b)
	if err != nil {
		t.Fatalf("re-decoding round trip: %v", err)
	}
	if !reflect.DeepEqual(v, v2) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", v, v2)
	}
}

func FuzzDecodeRegister(f *testing.F) {
	f.Add([]byte(`{"name":"rack7"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","extra":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeRegister(data)
		if err != nil {
			return
		}
		roundTrip(t, DecodeRegister, m)
	})
}

func FuzzDecodeHeartbeat(f *testing.F) {
	f.Add([]byte(`{"worker_id":"w-000001"}`))
	f.Add([]byte(`{"worker_id":""}`))
	f.Add([]byte(`{"worker_id":"w"} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeHeartbeat(data)
		if err != nil {
			return
		}
		if m.WorkerID == "" {
			t.Fatal("accepted heartbeat without worker_id")
		}
		roundTrip(t, DecodeHeartbeat, m)
	})
}

func FuzzDecodeLeaseRequest(f *testing.F) {
	f.Add([]byte(`{"worker_id":"w-000001","max":4}`))
	f.Add([]byte(`{"worker_id":"w-000001","max":-1}`))
	f.Add([]byte(`{"worker_id":"w-000001","max":99999999}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeLeaseRequest(data)
		if err != nil {
			return
		}
		if m.Max < 0 || m.Max > MaxLeaseJobs {
			t.Fatalf("accepted out-of-range max %d", m.Max)
		}
		roundTrip(t, DecodeLeaseRequest, m)
	})
}

func FuzzDecodeComplete(f *testing.F) {
	f.Add([]byte(`{"worker_id":"w","lease_id":"l","sweep":"s","results":[{"index":0,"state":"done","result":{"spec":{"app":"kafka"},"key":"k","outcome":{"trace":"kafka","instructions":1,"accesses":1,"hits":1,"misses":0,"mpki":0}}}]}`))
	f.Add([]byte(`{"worker_id":"w","lease_id":"l","sweep":"s","results":[{"index":0,"state":"failed","result":{"error":"boom"}}]}`))
	f.Add([]byte(`{"worker_id":"w","lease_id":"l","sweep":"s","results":[{"index":0,"state":"canceled","result":{}}]}`))
	f.Add([]byte(`{"worker_id":"w","lease_id":"l","sweep":"s"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeComplete(data)
		if err != nil {
			return
		}
		if len(m.Results) > MaxLeaseJobs {
			t.Fatalf("accepted %d results", len(m.Results))
		}
		for _, r := range m.Results {
			if r.Index < 0 || r.Index >= MaxJobIndex {
				t.Fatalf("accepted bad index %d", r.Index)
			}
		}
		roundTrip(t, DecodeComplete, m)
	})
}
