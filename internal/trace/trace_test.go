package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"thermometer/internal/xrand"
)

func sampleTrace() *Trace {
	return &Trace{
		Name: "sample",
		Records: []Record{
			{PC: 0x1000, Target: 0x2000, Taken: true, Type: CondDirect, BlockLen: 5},
			{PC: 0x2004, Target: 0x3000, Taken: true, Type: UncondDirect, BlockLen: 3},
			{PC: 0x3010, Taken: false, Type: CondDirect, BlockLen: 9},
			{PC: 0x1000, Target: 0x2000, Taken: true, Type: CondDirect, BlockLen: 5},
			{PC: 0x4000, Target: 0x1000, Taken: true, Type: Return, BlockLen: 0},
		},
	}
}

func TestBranchTypeString(t *testing.T) {
	cases := map[BranchType]string{
		CondDirect: "cond", UncondDirect: "jmp", Call: "call",
		Return: "ret", IndirectJump: "ijmp", IndirectCall: "icall",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
		if !ty.Valid() {
			t.Errorf("%v not Valid", ty)
		}
	}
	if BranchType(99).Valid() {
		t.Error("BranchType(99) reported Valid")
	}
}

func TestBranchTypePredicates(t *testing.T) {
	if !Return.IsIndirect() || !IndirectJump.IsIndirect() || !IndirectCall.IsIndirect() {
		t.Error("indirect types not reported indirect")
	}
	if CondDirect.IsIndirect() || UncondDirect.IsIndirect() || Call.IsIndirect() {
		t.Error("direct types reported indirect")
	}
	if !CondDirect.IsConditional() || UncondDirect.IsConditional() {
		t.Error("IsConditional wrong")
	}
}

func TestTraceCounts(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Len(); got != 5 {
		t.Errorf("Len = %d, want 5", got)
	}
	if got := tr.Instructions(); got != 5+5+3+9+5+0 {
		t.Errorf("Instructions = %d, want 27", got)
	}
	if got := tr.TakenBranches(); got != 4 {
		t.Errorf("TakenBranches = %d, want 4", got)
	}
	if got := tr.UniqueTakenPCs(); got != 3 {
		t.Errorf("UniqueTakenPCs = %d, want 3", got)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := &Trace{Records: []Record{{PC: 1, Taken: true, Target: 0, Type: CondDirect}}}
	if bad.Validate() == nil {
		t.Error("taken branch with zero target accepted")
	}
	bad = &Trace{Records: []Record{{PC: 1, Taken: false, Type: UncondDirect}}}
	if bad.Validate() == nil {
		t.Error("not-taken unconditional accepted")
	}
	bad = &Trace{Records: []Record{{PC: 1, Taken: true, Target: 2, Type: BranchType(7)}}}
	if bad.Validate() == nil {
		t.Error("invalid type accepted")
	}
}

func TestStaticBranches(t *testing.T) {
	tr := sampleTrace()
	m := tr.StaticBranches()
	if len(m) != 4 {
		t.Fatalf("static branches = %d, want 4", len(m))
	}
	b := m[0x1000]
	if b == nil || b.Executions != 2 || b.TakenCount != 2 {
		t.Fatalf("branch 0x1000 stats = %+v", b)
	}
	if b.Bias() != 1.0 {
		t.Errorf("bias = %v, want 1", b.Bias())
	}
	if b.TargetDistance != 0x1000 {
		t.Errorf("target distance = %v, want %v", b.TargetDistance, 0x1000)
	}
	nt := m[0x3010]
	if nt.Bias() != 0 {
		t.Errorf("never-taken bias = %v, want 0", nt.Bias())
	}
}

func TestAccessStream(t *testing.T) {
	tr := sampleTrace()
	acc := tr.AccessStream()
	if len(acc) != 4 {
		t.Fatalf("access stream length = %d, want 4", len(acc))
	}
	// First access to 0x1000 must point at the second (index 2 in stream).
	if acc[0].PC != 0x1000 || acc[0].NextUse != 2 {
		t.Errorf("access 0 = %+v, want PC 0x1000 NextUse 2", acc[0])
	}
	for _, i := range []int{1, 2, 3} {
		if acc[i].NextUse != NoNextUse {
			t.Errorf("access %d NextUse = %d, want NoNextUse", i, acc[i].NextUse)
		}
	}
	if acc[3].Type != Return {
		t.Errorf("access 3 type = %v, want ret", acc[3].Type)
	}
	for i, want := range []int32{0, 1, 0, 2} {
		if acc[i].Site != want {
			t.Errorf("access %d site = %d, want %d", i, acc[i].Site, want)
		}
	}
}

// randomTrace builds a structurally valid random trace for property tests.
func randomTrace(r *xrand.RNG, n int) *Trace {
	tr := &Trace{Name: "prop"}
	pcs := make([]uint64, 50)
	for i := range pcs {
		pcs[i] = 0x400000 + uint64(r.Intn(1<<20))*4
	}
	for i := 0; i < n; i++ {
		rec := Record{
			PC:       pcs[r.Intn(len(pcs))],
			Type:     CondDirect,
			BlockLen: uint16(r.Intn(32)),
		}
		if r.Bool(0.7) {
			rec.Taken = true
			rec.Target = rec.PC + uint64(r.Intn(1<<12)) + 4
		}
		tr.Records = append(tr.Records, rec)
	}
	return tr
}

func TestAccessStreamNextUseProperty(t *testing.T) {
	r := xrand.New(99)
	for iter := 0; iter < 20; iter++ {
		tr := randomTrace(r, 500)
		acc := tr.AccessStream()
		// Brute-force verification of NextUse.
		for i := range acc {
			want := NoNextUse
			for j := i + 1; j < len(acc); j++ {
				if acc[j].PC == acc[i].PC {
					want = j
					break
				}
			}
			if acc[i].NextUse != want {
				t.Fatalf("iter %d: access %d NextUse = %d, want %d", iter, i, acc[i].NextUse, want)
			}
		}
	}
}

// checkSites verifies acc's site numbering: sites are numbered in
// first-access order, with one site per PC and one PC per site.
func checkSites(t *testing.T, acc []Access) {
	t.Helper()
	var pcOf []uint64 // site → PC
	siteOf := make(map[uint64]int32)
	for i := range acc {
		a := &acc[i]
		s, seen := siteOf[a.PC]
		if !seen {
			s = int32(len(pcOf))
			siteOf[a.PC] = s
			pcOf = append(pcOf, a.PC)
		}
		if a.Site != s {
			t.Fatalf("access %d (PC %#x) site = %d, want %d", i, a.PC, a.Site, s)
		}
	}
	if n := SiteCount(acc); n != len(pcOf) {
		t.Fatalf("SiteCount = %d, want %d distinct PCs", n, len(pcOf))
	}
}

// TestAccessStreamSites: on random traces the stream numbers its static
// branches in first-access order, one site per PC and one PC per site, and
// an Access stays 32 bytes.
func TestAccessStreamSites(t *testing.T) {
	if size := unsafe.Sizeof(Access{}); size != 32 {
		t.Errorf("Access is %d bytes, want 32", size)
	}
	r := xrand.New(99)
	for iter := 0; iter < 20; iter++ {
		checkSites(t, randomTrace(r, 500).AccessStream())
	}
	if n := SiteCount(nil); n != 0 {
		t.Errorf("SiteCount(nil) = %d, want 0", n)
	}
}

// TestMemoSingleFlight: concurrent Memo callers build each key's value
// once and all see that value; distinct keys get distinct values.
func TestMemoSingleFlight(t *testing.T) {
	tr := sampleTrace()
	type key struct{ n int }
	var builds [2]atomic.Int32
	got := make([]any, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % 2
			got[i] = tr.Memo(key{k}, func() any {
				builds[k].Add(1)
				return &struct{ k int }{k}
			})
		}(i)
	}
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", k, n)
		}
	}
	for i := range got {
		if got[i] != got[i%2] {
			t.Fatalf("caller %d saw a different value for key %d", i, i%2)
		}
	}
	if got[0] == got[1] {
		t.Fatal("distinct keys share one value")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != tr.Name || len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	r := xrand.New(123)
	f := func(seed uint16) bool {
		_ = seed
		tr := randomTrace(r, 200)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("THRMTRC1"))); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// The header's record count is untrusted: a header declaring 2^20 records
// over an empty body must fail without Read preallocating room for them
// (24 MiB of records; the capped preallocation is 1.5 MiB).
func TestReadCapsPreallocation(t *testing.T) {
	data := binary.AppendUvarint(binary.AppendUvarint([]byte(magic), 0), 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header declaring 2^20 records over an empty body was accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Fatalf("Read allocated %.2f MiB for an empty body, want under 4 MiB", float64(d)/(1<<20))
	}
}

func TestSlice(t *testing.T) {
	tr := sampleTrace()
	s := tr.Slice(1, 3)
	if s.Len() != 2 || s.Records[0].PC != 0x2004 {
		t.Fatalf("Slice wrong: %+v", s.Records)
	}
}

func TestStreamingReader(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Name() != "sample" || sr.Len() != uint64(len(tr.Records)) {
		t.Fatalf("header = %q/%d", sr.Name(), sr.Len())
	}
	for i := range tr.Records {
		rec, err := sr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec != tr.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, tr.Records[i])
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("post-end error = %v, want EOF", err)
	}
}

func TestStreamingReaderTruncation(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every truncation point must produce an error (not a panic or a
	// silently short trace) from either NewReader or some Next call.
	for cut := 0; cut < len(full)-1; cut++ {
		sr, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue
		}
		sawErr := false
		for {
			_, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr && sr.Len() > 0 && cut < len(full)-1 {
			// Only the final byte being cut can still parse cleanly when
			// the last record's fields happen to end early — structural
			// truncations must error.
			t.Fatalf("truncation at %d/%d parsed cleanly", cut, len(full))
		}
	}
}
