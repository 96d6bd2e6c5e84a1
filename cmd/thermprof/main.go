// Command thermprof is the Thermometer offline profiler (steps 2 and 3 of
// the paper's Fig 10): it simulates Belady's optimal BTB replacement over a
// branch trace, computes each branch's hit-to-taken temperature, and writes
// the hint table a compiler would encode into branch instructions.
//
// Usage:
//
//	thermprof -trace kafka0.trc -o kafka.hints
//	thermprof -trace kafka0.trc -entries 8192 -ways 4 -thresholds 0.5,0.8
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"thermometer/internal/profile"
	"thermometer/internal/trace"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "input trace file (required)")
		out        = flag.String("o", "", "output hint file (default <trace>.hints)")
		entries    = flag.Int("entries", 8192, "BTB entries of the target architecture")
		ways       = flag.Int("ways", 4, "BTB associativity of the target architecture")
		thresholds = flag.String("thresholds", "0.5,0.8", "ascending temperature thresholds")
		defaultCat = flag.Int("default", 1, "category for unprofiled branches")
		auto       = flag.Bool("autothreshold", false, "pick thresholds by two-fold cross validation (overrides -thresholds)")
		verbose    = flag.Bool("v", false, "print per-category statistics")
	)
	flag.Parse()
	if *tracePath == "" {
		fatalf("need -trace")
	}
	if *entries <= 0 || *ways <= 0 || *entries < *ways {
		fatalf("invalid BTB geometry: %d entries / %d ways", *entries, *ways)
	}
	if *entries%*ways != 0 {
		sets := *entries / *ways
		fmt.Fprintf(os.Stderr, "thermprof: %d entries is not a multiple of %d ways; profiling %d sets of %d ways (%d entries)\n",
			*entries, *ways, sets, *ways, sets**ways)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatalf("open: %v", err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		fatalf("read trace: %v", err)
	}

	cfg := profile.Config{DefaultCategory: uint8(*defaultCat)}
	if *auto {
		c, err := profile.CrossValidateThresholds(tr.AccessStream(), *entries, *ways, nil)
		if err != nil {
			fatalf("cross validation: %v", err)
		}
		cfg = c
		fmt.Printf("two-fold cross validation selected thresholds %v\n", cfg.Thresholds)
	} else {
		for _, part := range strings.Split(*thresholds, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fatalf("bad threshold %q: %v", part, err)
			}
			cfg.Thresholds = append(cfg.Thresholds, v)
		}
	}
	if err := cfg.Validate(); err != nil {
		fatalf("%v", err)
	}

	start := time.Now()
	ht, res, err := profile.ProfileTrace(tr, *entries, *ways, cfg)
	if err != nil {
		fatalf("profile: %v", err)
	}
	elapsed := time.Since(start)

	name := *out
	if name == "" {
		name = strings.TrimSuffix(*tracePath, ".trc") + ".hints"
	}
	of, err := os.Create(name)
	if err != nil {
		fatalf("create: %v", err)
	}
	defer of.Close()
	if err := ht.Write(of); err != nil {
		fatalf("write hints: %v", err)
	}

	fmt.Printf("profiled %s: %d accesses, optimal hit rate %.2f%%, %d branches, %v\n",
		tr.Name, res.Accesses, 100*res.HitRate(), ht.Len(), elapsed.Round(time.Millisecond))
	if *verbose {
		shares := ht.CategoryShares()
		for i, s := range shares {
			fmt.Printf("  category %d: %.1f%% of branches\n", i, 100*s)
		}
	}
	fmt.Printf("wrote %s (%d-category hints, %d bits per branch)\n",
		name, cfg.Categories(), cfg.HintBits())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thermprof: "+format+"\n", args...)
	os.Exit(1)
}
