package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is the number of samples that must lie above a reported tail
// percentile.
const minBeyond = 10

// tailPercentile returns the value reported as op_ms_p90 and the
// percentile it actually is. It is the 90th percentile (nearest rank) when
// at least minBeyond samples lie above it, which takes n >= 100; with fewer
// samples it is the highest rank that still has minBeyond above it, and it
// never falls below the median's rank. xs is not modified.
func tailPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(0.9 * float64(n))) // 1-based nearest rank of p90
	if k > n-minBeyond {
		k = n - minBeyond
	}
	if lo := (n + 1) / 2; k < lo {
		k = lo
	}
	return s[k-1], 100 * float64(k) / float64(n)
}

// minstrPerSec is the host throughput in millions of trace instructions
// per second of summed op wall time.
func minstrPerSec(instructions uint64, busy time.Duration) float64 {
	if busy <= 0 {
		return 0
	}
	return float64(instructions) / busy.Seconds() / 1e6
}

// vmHWMMiB parses the VmHWM line of a /proc/<pid>/status file: the peak
// resident set size, in MiB.
func vmHWMMiB(status io.Reader) (float64, error) {
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", sc.Text(), err)
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSMiB returns VmHWM of the process with the given pid ("self" for
// this one).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return vmHWMMiB(f)
}

// tally counts ops attempted and failed. An op fails when it panics,
// returns an error, or fails one of its output checks; each failure is
// kept (up to a cap) so the run can say what went wrong.
type tally struct {
	attempted, failed int
	errs              []string
}

const maxKeptErrors = 8

// add records one op's outcome.
func (t *tally) add(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < maxKeptErrors {
		t.errs = append(t.errs, err.Error())
	}
}

// fail turns an op that already completed into a failed one, for a check
// that can only run after later ops (e.g. comparing two cells of a grid).
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < maxKeptErrors {
		t.errs = append(t.errs, err.Error())
	}
}

// guard runs op and converts a panic into an error, so one broken op is a
// failed op rather than a crashed run.
func guard(op func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return op()
}
