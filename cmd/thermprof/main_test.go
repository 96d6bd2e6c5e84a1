package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"thermometer/internal/profile"
	"thermometer/internal/trace"
	"thermometer/internal/workload"
)

// asMain makes the test binary run thermprof's main when set, so the tests
// below drive the command in a child process and see its exit status.
const asMain = "THERMPROF_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// thermprof runs the command with args and returns its stdout, stderr and
// exit status.
func thermprof(t *testing.T, args ...string) (stdout, stderr string, code int) {
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

// kafkaTrace writes a short kafka trace and returns its directory and path.
func kafkaTrace(t *testing.T) (dir, path string) {
	t.Helper()
	dir = t.TempDir()
	spec, ok := workload.App("kafka")
	if !ok {
		t.Fatal("no kafka workload")
	}
	spec.Length = 20000
	path = filepath.Join(dir, "kafka.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, spec.Generate(0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, path
}

func TestBadGeometry(t *testing.T) {
	_, tracePath := kafkaTrace(t)
	for _, args := range [][]string{
		{"-ways", "0"},
		{"-ways", "0", "-autothreshold"},
		{"-entries", "-4"},
		{"-entries", "2", "-ways", "4"},
	} {
		_, stderr, code := thermprof(t, append([]string{"-trace", tracePath}, args...)...)
		if code != 1 || !strings.HasPrefix(stderr, "thermprof: ") {
			t.Errorf("%v: exit %d, stderr %q; want 1 and a thermprof: message", args, code, stderr)
		}
	}
}

func TestWritesReadableHints(t *testing.T) {
	dir, tracePath := kafkaTrace(t)
	hintsPath := filepath.Join(dir, "kafka.hints")
	stdout, stderr, code := thermprof(t, "-trace", tracePath, "-o", hintsPath)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	f, err := os.Open(hintsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ht, err := profile.ReadHints(f)
	if err != nil {
		t.Fatalf("hint file does not parse: %v", err)
	}
	if ht.Len() == 0 || ht.Config.Categories() != 3 {
		t.Errorf("%d hints over %d categories, want some over 3", ht.Len(), ht.Config.Categories())
	}
}

// An -entries that -ways does not divide is profiled as whole sets, and
// thermprof names the geometry it uses on stderr; a geometry that divides
// prints no such line.
func TestTruncatedGeometry(t *testing.T) {
	dir, tracePath := kafkaTrace(t)
	for _, tc := range []struct{ entries, stderr string }{
		{"7979", "thermprof: 7979 entries is not a multiple of 4 ways; profiling 1994 sets of 4 ways (7976 entries)\n"},
		{"8192", ""},
	} {
		stdout, stderr, code := thermprof(t, "-trace", tracePath, "-entries", tc.entries, "-ways", "4", "-o", filepath.Join(dir, tc.entries+".hints"))
		if code != 0 {
			t.Fatalf("-entries %s: exit %d\n%s%s", tc.entries, code, stdout, stderr)
		}
		if stderr != tc.stderr {
			t.Errorf("-entries %s: stderr %q, want %q", tc.entries, stderr, tc.stderr)
		}
	}
}
