// Command benchpair compares the benchmark's end-to-end metrics between a
// base commit and the working tree. It exports the base with git archive
// and copies the working tree into one temporary directory, runs the
// command BENCHMARK.json names (perfbench/run.sh) in both trees in
// alternating pairs, and prints one markdown table: per workload and
// metric, the median paired ratio with a distribution-free 95% interval.
// Run it from the repository root:
//
//	go run ./cmd/benchpair -base origin/main -workloads timing-grid -pairs 10 -seconds 20
//
// Pair i runs the base first when i is odd and the head first when i is
// even, so drift in machine speed cancels within a pair. Each pair gives
// one ratio per metric, oriented so that above 1 is worse. The interval is
// the sign test's: order statistics k and n+1-k of the sorted ratios, with
// k the largest whose two-sided binomial tail is at most 5%.
//
// The gate follows BENCHMARK.json. It exits 2 when a base run fails or
// reads incorrect, and 1 when a head run does, when the head fails a larger
// share of ops than the base, or when host_minstr_per_s is worse than the
// base by more than its bound with the whole interval on the worse side of
// 1. The other metrics are reported; "unresolved" marks one whose interval
// straddles its bound. When perfbench/ or BENCHMARK.json differ between the
// trees, the two sides would run different benchmarks: benchpair says so
// and exits 0 without running either.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// gated is the one metric the exit status rests on. The others are too
// noisy at CI run lengths: at five seconds timing-grid completes 100-180
// ops, and its op_ms_p90 interval reached 0.33 and 2.50 in A vs A on a
// 2-vCPU VM.
const gated = "host_minstr_per_s"

// metric is one end_to_end entry of BENCHMARK.json.
type metric struct {
	Name, Unit, Better string
	Bound              float64
}

type benchmark struct {
	Command   []string
	Workloads []struct{ Name string }
	EndToEnd  []metric `json:"end_to_end"`
}

// result is the JSON object a benchmark run prints as its last stdout line.
type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

// sides names the two trees; a run's side indexes it (0 base, 1 head).
var sides = [2]string{"base", "head"}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
	}
	os.Exit(code)
}

// run returns the exit status: 0 when the head passes the gate or nothing
// was compared, 1 when it fails or the tool cannot run, 2 when the base
// fails.
func run(args []string, stdout io.Writer) (int, error) {
	fl := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	base := fl.String("base", "", "git ref of the base commit (required)")
	names := fl.String("workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	pairs := fl.Int("pairs", 10, "base/head pairs per workload (at least 6: fewer give no 95% interval)")
	seconds := fl.Float64("seconds", 20, "timed seconds per run")
	seed := fl.Uint64("seed", 0, "workload seed")
	if err := fl.Parse(args); err != nil {
		return 1, err
	}
	if *base == "" || fl.NArg() > 0 || *seconds <= 0 || signK(*pairs) == 0 {
		return 1, errors.New("need -base <ref>, -seconds > 0, -pairs of at least 6 and no positional arguments")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	var b benchmark
	if err == nil {
		err = json.Unmarshal(raw, &b)
	}
	if err != nil {
		return 1, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var known []string
	for _, w := range b.Workloads {
		known = append(known, w.Name)
	}
	workloads := known
	if *names != "" {
		workloads = strings.Split(*names, ",")
	}
	for _, w := range workloads {
		if !slices.Contains(known, w) {
			return 1, fmt.Errorf("unknown workload %q (BENCHMARK.json has %s)", w, strings.Join(known, ", "))
		}
	}

	dir, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	// The head runs from a copy of the working tree: paths of equal length
	// and no .git in either tree give the two builds one memory layout. A
	// git checkout's build carries a VCS stamp and other paths than the
	// export's, which moves its data segment; paired against an export of
	// the same commit on a 2-vCPU VM, it read 6-9% faster on
	// prefetch-observed.
	trees := [2]string{filepath.Join(dir, "base"), filepath.Join(dir, "head")}
	for side, export := range [2]string{`git archive "$1"`, `tar -c --exclude=./.git --exclude=./.bench_build .`} {
		cmd := exec.Command("bash", "-o", "pipefail", "-c", `mkdir "$2" && `+export+` | tar -x -C "$2"`, "bash", *base, trees[side])
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 2 - side, fmt.Errorf("%s failed: exporting its tree: %w", sides[side], err)
		}
	}
	same, err := sameBenchmark(trees)
	if err != nil {
		return 1, err
	}
	if !same {
		fmt.Fprintf(stdout, "perfbench/ or BENCHMARK.json differs between %s and the working tree, so the two sides would run different benchmarks: not gating.\n", *base)
		return 0, nil
	}

	fmt.Fprintf(stdout, "%s (base) against the working tree (head): %d pairs of %gs runs, seed %d.\n\n"+
		"| workload | metric | base median (IQR) | head median | ratio [95%% interval] | head wins | verdict |\n|---|---|---|---|---|---|---|\n",
		*base, *pairs, *seconds, *seed)
	var fails []string
	for _, w := range workloads {
		runs, code, err := measure(*pairs, func(pair, side int) (result, error) {
			fmt.Fprintf(os.Stderr, "benchpair: %s pair %d/%d, %s\n", w, pair, *pairs, sides[side])
			return runOnce(b.Command, trees[side], w, *seed, *seconds)
		})
		if err != nil {
			return code, err
		}
		fails = append(fails, gate(stdout, w, b.EndToEnd, runs)...)
	}
	if len(fails) > 0 {
		msg := strings.Join(fails, "; ")
		fmt.Fprintf(stdout, "\n**FAIL**: %s\n", msg)
		return 1, errors.New("head fails the gate: " + msg)
	}
	return 0, nil
}

// sameBenchmark reports whether BENCHMARK.json and every file under
// perfbench/ have the same paths and contents in both trees.
func sameBenchmark(trees [2]string) (bool, error) {
	var sums [2]string
	for side, root := range trees {
		h, fsys := sha256.New(), os.DirFS(root)
		for _, top := range []string{"BENCHMARK.json", "perfbench"} {
			err := fs.WalkDir(fsys, top, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				data, err := fs.ReadFile(fsys, path)
				fmt.Fprintf(h, "%s %d\n", path, len(data))
				h.Write(data)
				return err
			})
			if err != nil {
				return false, err
			}
		}
		sums[side] = string(h.Sum(nil))
	}
	return sums[0] == sums[1], nil
}

// measure runs n pairs through do, the base first in odd pairs and the head
// first in even ones. A run that fails or reads incorrect ends it, with
// exit status 2 for the base and 1 for the head.
func measure(n int, do func(pair, side int) (result, error)) (runs [2][]result, code int, err error) {
	for i := 1; i <= n; i++ {
		for _, side := range [2]int{1 - i%2, i % 2} {
			r, err := do(i, side)
			if err == nil && !r.Correct {
				err = errors.New(`the run printed "correct": false`)
			}
			if err != nil {
				return runs, 2 - side, fmt.Errorf("%s failed in pair %d: %w", sides[side], i, err)
			}
			runs[side] = append(runs[side], r)
		}
	}
	return runs, 0, nil
}

// runOnce runs the benchmark command from tree's root and parses its last
// stdout line. Its output is echoed to stderr as a record of the run.
func runOnce(command []string, tree, workload string, seed uint64, seconds float64) (result, error) {
	args := append(command[1:len(command):len(command)],
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd := exec.Command(command[0], args...)
	cmd.Dir = tree
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&out, os.Stderr), os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	return parseLast(out.Bytes())
}

func parseLast(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("last output line is not a result: %w", err)
	}
	return r, nil
}

// gate writes one workload's table rows and returns why the head fails
// there, if it does.
func gate(w io.Writer, workload string, metrics []metric, runs [2][]result) (fails []string) {
	n := len(runs[0])
	for _, m := range metrics {
		var v [2][]float64
		for side, rs := range runs {
			for _, r := range rs {
				v[side] = append(v[side], r.Metrics[m.Name].Value)
			}
		}
		c := compare(m, v[0], v[1])
		fmt.Fprintf(w, "| %s | %s (%s) | %.4g (%.3g) | %.4g | %.3f [%.3f, %.3f] | %d/%d | %s |\n",
			workload, m.Name, m.Unit, c.baseMed, c.baseIQR, c.headMed, c.ratio, c.lo, c.hi, c.wins, n, c.verdict)
		if c.verdict == "FAIL" {
			fails = append(fails, fmt.Sprintf("%s %s is %.3fx worse than base [%.3f, %.3f], beyond its bound %g",
				workload, m.Name, c.ratio, c.lo, c.hi, m.Bound))
		}
	}
	var share [2]float64
	for side, rs := range runs {
		var attempted, failed int
		for _, r := range rs {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
		share[side] = 100 * float64(failed) / float64(attempted)
	}
	if share[1] > share[0] {
		fails = append(fails, fmt.Sprintf("%s head failed %.3g%% of ops against the base's %.3g%%", workload, share[1], share[0]))
	}
	return fails
}

// comparison is one metric's paired comparison on one workload.
type comparison struct {
	baseMed, baseIQR, headMed float64
	ratio, lo, hi             float64 // median oriented ratio and its interval
	wins                      int     // pairs whose ratio is below 1
	verdict                   string
}

// compare pairs base[i] with head[i]. The verdict is "FAIL" when m is the
// gated metric, its median ratio is beyond the bound and the interval lies
// wholly above 1; otherwise "worse" when the interval lies wholly beyond
// the bound, "unresolved" when it straddles the bound, and "ok".
func compare(m metric, base, head []float64) comparison {
	n := len(base)
	ratios := make([]float64, n)
	var c comparison
	for i := range base {
		ratios[i] = head[i] / base[i]
		if m.Better == "higher" {
			ratios[i] = base[i] / head[i]
		}
		if ratios[i] < 1 {
			c.wins++
		}
	}
	k, bs, hs := signK(n), slices.Clone(base), slices.Clone(head)
	slices.Sort(ratios)
	slices.Sort(bs)
	slices.Sort(hs)
	c.ratio, c.lo, c.hi = quantile(ratios, 0.5), ratios[k-1], ratios[n-k]
	c.baseMed, c.baseIQR, c.headMed = quantile(bs, 0.5), quantile(bs, 0.75)-quantile(bs, 0.25), quantile(hs, 0.5)
	// Worse by more than the bound: head/base above 1+bound for a
	// lower-is-better metric, below 1-bound for a higher-is-better one.
	limit := 1 + m.Bound
	if m.Better == "higher" {
		limit = 1 / (1 - m.Bound)
	}
	switch {
	case m.Name == gated && c.ratio > limit && c.lo > 1:
		c.verdict = "FAIL"
	case c.lo > limit:
		c.verdict = "worse"
	case c.hi > limit:
		c.verdict = "unresolved"
	default:
		c.verdict = "ok"
	}
	return c
}

// signK returns the largest k whose two-sided binomial tail,
// 2·P(Bin(n, ½) ≤ k-1), is at most 5%, or 0 when even the extreme order
// statistics (k = 1) fall short of 95% coverage.
func signK(n int) int {
	k, tail, choose := 0, 0.0, 1.0 // choose is C(n, j)
	for j := 0; j < n; j++ {
		tail += math.Ldexp(choose, -n)
		if 2*tail > 0.05 {
			break
		}
		k = j + 1
		choose = choose * float64(n-j) / float64(j+1)
	}
	return k
}

// quantile returns the p-quantile (p < 1) of sorted xs, which holds at
// least two values, interpolating linearly between order statistics.
func quantile(xs []float64, p float64) float64 {
	pos := p * float64(len(xs)-1)
	i := int(pos)
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
