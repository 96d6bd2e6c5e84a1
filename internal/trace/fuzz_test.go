package trace

import (
	"bytes"
	"testing"
)

// FuzzParseTrace feeds arbitrary bytes to the THRMTRC1 decoder. The decoder
// must never panic or over-allocate on corrupt input, and any input it
// accepts must survive a write/read round trip unchanged.
func FuzzParseTrace(f *testing.F) {
	// Seed: a small valid trace of every branch type.
	valid := &Trace{
		Name: "seed",
		Records: []Record{
			{PC: 0x1000, Target: 0x2000, Type: UncondDirect, Taken: true},
			{PC: 0x1008, Target: 0x3000, Type: CondDirect, Taken: true},
			{PC: 0x1010, Target: 0, Type: CondDirect, Taken: false},
			{PC: 0x1018, Target: 0x4000, Type: IndirectJump, Taken: true},
			{PC: 0x1020, Target: 0x5000, Type: Call, Taken: true},
			{PC: 0x1028, Target: 0x6000, Type: IndirectCall, Taken: true},
			{PC: 0x6000, Target: 0x1030, Type: Return, Taken: true},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, valid); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("THRMTRC1"))                                         // magic only, truncated header
	f.Add([]byte("THRMTRC1\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f")) // huge declared count
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("re-encoding accepted trace: %v", err)
		}
		tr2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decoding round trip: %v", err)
		}
		if tr.Name != tr2.Name || len(tr.Records) != len(tr2.Records) {
			t.Fatalf("round trip mismatch: %q/%d vs %q/%d",
				tr.Name, len(tr.Records), tr2.Name, len(tr2.Records))
		}
		for i := range tr.Records {
			if tr.Records[i] != tr2.Records[i] {
				t.Fatalf("record %d mismatch: %+v vs %+v", i, tr.Records[i], tr2.Records[i])
			}
		}
	})
}

// fuzzRecords turns arbitrary bytes into a valid record sequence, one
// record per byte (at most 1024): bits 0-2 pick one of eight PCs, so PCs
// repeat; bit 3 is the taken flag and bits 4-6 the branch type, with every
// non-conditional branch taken as Validate requires.
func fuzzRecords(data []byte) []Record {
	data = data[:min(len(data), 1024)]
	recs := make([]Record, len(data))
	for i, b := range data {
		r := Record{
			PC:       0x4000 + uint64(b&7)*0x40,
			Type:     BranchType(b>>4&7) % numBranchTypes,
			Taken:    b&8 != 0,
			BlockLen: uint16(i % 7),
		}
		if !r.Type.IsConditional() {
			r.Taken = true
		}
		if r.Taken {
			r.Target = r.PC + 0x100 + uint64(i)
		}
		recs[i] = r
	}
	return recs
}

// FuzzAccessStream checks the access stream of arbitrary small traces: one
// access per taken record, in order; sites numbered in first-access order
// with one site per PC and one PC per site; and every NextUse equal to a
// forward scan's.
func FuzzAccessStream(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})                         // one not-taken record: no access
	f.Add([]byte{0x08})                         // a single taken record
	f.Add([]byte{0x08, 0x09, 0x08, 0x0a, 0x09}) // repeated PCs
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})       // no taken record
	f.Add([]byte{0x18, 0x2f, 0x3b, 0x4c, 0x5d, 0x6e, 0x08, 0x1f})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &Trace{Name: "fuzz", Records: fuzzRecords(data)}
		if err := tr.Validate(); err != nil {
			t.Fatalf("fuzzRecords built an invalid trace: %v", err)
		}
		acc := tr.AccessStream()
		if uint64(len(acc)) != tr.TakenBranches() {
			t.Fatalf("%d accesses for %d taken records", len(acc), tr.TakenBranches())
		}
		k := 0
		for i := range tr.Records {
			r := &tr.Records[i]
			if !r.Taken {
				continue
			}
			if a := &acc[k]; a.PC != r.PC || a.Target != r.Target || a.Type != r.Type {
				t.Fatalf("access %d = %+v, record %d = %+v", k, *a, i, *r)
			}
			k++
		}
		checkSites(t, acc)
		if n := SiteCount(acc); n != tr.UniqueTakenPCs() {
			t.Fatalf("SiteCount = %d, UniqueTakenPCs = %d", n, tr.UniqueTakenPCs())
		}
		for i := range acc {
			want := NoNextUse
			for j := i + 1; j < len(acc); j++ {
				if acc[j].PC == acc[i].PC {
					want = j
					break
				}
			}
			if acc[i].NextUse != want {
				t.Fatalf("access %d NextUse = %d, want %d", i, acc[i].NextUse, want)
			}
		}
	})
}
