package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"thermometer/internal/profile"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// asMain makes the test binary run btbsim's main when set, so the tests
// below drive the command in a child process and see its exit status.
const asMain = "BTBSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// btbsim runs the command with args and returns its stdout, stderr and
// exit status.
func btbsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		code = ee.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// inputs writes a short kafka trace and its thermprof-style hint table.
func inputs(t *testing.T) (dir, tracePath, hintsPath string) {
	t.Helper()
	dir = t.TempDir()
	spec, ok := workload.App("kafka")
	if !ok {
		t.Fatal("no kafka workload")
	}
	spec.Length = 20000
	tr := spec.Generate(0)
	ht, _, err := profile.ProfileTrace(tr, 8192, 4, profile.Config{Thresholds: []float64{0.5, 0.8}, DefaultCategory: 1})
	if err != nil {
		t.Fatal(err)
	}
	tracePath, hintsPath = filepath.Join(dir, "kafka.trc"), filepath.Join(dir, "kafka.hints")
	write := func(path string, w func(*os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(tracePath, func(f *os.File) error { return trace.Write(f, tr) })
	write(hintsPath, func(f *os.File) error { return ht.Write(f) })
	return dir, tracePath, hintsPath
}

// printed reads the instruction count btbsim printed.
func printed(t *testing.T, stdout string) uint64 {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		var instr, cycles uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "instructions %d  cycles %d", &instr, &cycles); err == nil {
			return instr
		}
	}
	t.Fatalf("no instruction count in:\n%s", stdout)
	return 0
}

// report parses a -metrics file.
func report(t *testing.T, path string) (manifest map[string]string, counters map[string]uint64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Manifest map[string]string
		Metrics  struct{ Counters map[string]uint64 }
	}
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("-metrics output is not JSON: %v", err)
	}
	return r.Manifest, r.Metrics.Counters
}

// readCSV parses a CSV file and checks it has a header and at least one
// row, every row as wide as the header.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(rows) < 2 {
		t.Fatalf("%s: %d rows, want a header and data", path, len(rows))
	}
	return rows
}

// TestMetricsOnly covers a telemetry run with no event ring: the observer
// exists but its Events is nil.
func TestMetricsOnly(t *testing.T) {
	dir, tracePath, _ := inputs(t)
	metrics := filepath.Join(dir, "m.json")
	stdout, stderr, code := btbsim(t, "-trace", tracePath, "-policy", "srrip", "-metrics", metrics)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	manifest, counters := report(t, metrics)
	if manifest["policy"] != "srrip" {
		t.Errorf("manifest policy %q, want srrip", manifest["policy"])
	}
	if got, want := counters["instructions"], printed(t, stdout); got != want || want == 0 {
		t.Errorf("instructions counter %d, printed %d", got, want)
	}
}

// TestEverySink runs Thermometer with both audits and every output file.
func TestEverySink(t *testing.T) {
	dir, tracePath, hintsPath := inputs(t)
	out := func(name string) string { return filepath.Join(dir, name) }
	stdout, stderr, code := btbsim(t, "-trace", tracePath, "-policy", "thermometer", "-hints", hintsPath,
		"-attrib", "-hintqual", "-heatmap", out("heat.csv"), "-events", out("events.json"),
		"-epochcsv", out("epochs.csv"), "-epoch", "20000", "-metrics", out("m.json"))
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	for _, want := range []string{"attribution report (policy=Thermometer", "hint-quality report (policy=Thermometer", "thermometer coverage"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	_, counters := report(t, out("m.json"))
	if got, want := counters["instructions"], printed(t, stdout); got != want {
		t.Errorf("instructions counter %d, printed %d", got, want)
	}

	b, err := os.ReadFile(out("events.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &events); err != nil || len(events.TraceEvents) == 0 {
		t.Errorf("-events: %d trace events, err %v", len(events.TraceEvents), err)
	}
	if rows := readCSV(t, out("epochs.csv")); rows[0][0] != "epoch" {
		t.Errorf("-epochcsv header %v", rows[0])
	}
	if rows := readCSV(t, out("heat.csv")); rows[0][0] != "end_instr" {
		t.Errorf("-heatmap header starts %q", rows[0][0])
	}
}

func TestUnknownPolicy(t *testing.T) {
	_, tracePath, _ := inputs(t)
	_, stderr, code := btbsim(t, "-trace", tracePath, "-policy", "nosuch")
	if code != 1 || !strings.HasPrefix(stderr, "btbsim: ") {
		t.Errorf("exit %d, stderr %q; want 1 and a btbsim: message", code, stderr)
	}
}

// An event ring below one entry would leave -events unwritten; btbsim must
// refuse it, as it refuses -epoch 0.
func TestBadEventCap(t *testing.T) {
	dir, tracePath, _ := inputs(t)
	events := filepath.Join(dir, "ev.json")
	for _, capArg := range []string{"0", "-5"} {
		_, stderr, code := btbsim(t, "-trace", tracePath, "-events", events, "-eventcap", capArg)
		if code != 1 || !strings.HasPrefix(stderr, "btbsim: ") {
			t.Errorf("-eventcap %s: exit %d, stderr %q; want 1 and a btbsim: message", capArg, code, stderr)
		}
	}
}

// An -entries that -ways does not divide builds whole sets only: btbsim
// names the geometry it uses on stderr, and its header and manifest give
// the built entry count. A geometry that divides prints no such line.
func TestTruncatedGeometry(t *testing.T) {
	_, tracePath, _ := inputs(t)
	for _, tc := range []struct {
		entries, stderr, header, manifest string
	}{
		{"7979", "btbsim: 7979 entries is not a multiple of 4 ways; using 1994 sets of 4 ways (7976 entries)\n", "BTB 7976×4", "entries=7976 "},
		{"8192", "", "BTB 8192×4", "entries=8192 "},
	} {
		stdout, stderr, code := btbsim(t, "-trace", tracePath, "-policy", "lru", "-entries", tc.entries, "-ways", "4")
		if code != 0 {
			t.Fatalf("-entries %s: exit %d\n%s%s", tc.entries, code, stdout, stderr)
		}
		if stderr != tc.stderr {
			t.Errorf("-entries %s: stderr %q, want %q", tc.entries, stderr, tc.stderr)
		}
		if !strings.Contains(stdout, ", "+tc.header+"\n") || !strings.Contains(stdout, " "+tc.manifest) {
			t.Errorf("-entries %s: stdout lacks %q or %q:\n%s", tc.entries, tc.header, tc.manifest, stdout)
		}
	}
}
