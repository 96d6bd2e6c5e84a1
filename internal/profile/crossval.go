package profile

import (
	"fmt"

	"thermometer/internal/belady"
	"thermometer/internal/trace"
)

// The paper notes (§3.3, §4.2) that the 50%/80% thresholds are empirically
// chosen and configurable per application, and uses two-fold cross
// validation to find better thresholds for the CBP-5 traces where the
// defaults underperform (Fig 17). This file implements that search as part
// of the profiler proper, so cmd/thermprof can run it.

// DefaultThresholdGrid is the candidate threshold space searched by
// CrossValidateThresholds.
func DefaultThresholdGrid() [][]float64 {
	return [][]float64{
		{0.20, 0.50}, {0.30, 0.60}, {0.40, 0.70},
		{0.50, 0.80}, {0.60, 0.90}, {0.70, 0.95},
	}
}

// CrossValidateThresholds picks, from grid, the threshold configuration
// minimizing total Thermometer misses under two-fold cross validation:
// profile the first half of the access stream and evaluate on the second,
// then vice versa. An empty grid uses DefaultThresholdGrid.
//
// The evaluation replays a BTB under Algorithm 1 directly (a miniature of
// package replay, reimplemented here to keep the dependency graph acyclic:
// replay depends on profile).
func CrossValidateThresholds(accesses []trace.Access, entries, ways int, grid [][]float64) (Config, error) {
	if len(grid) == 0 {
		grid = DefaultThresholdGrid()
	}
	if len(accesses) < 4 {
		return DefaultConfig(), nil
	}
	half := len(accesses) / 2
	folds := [2][2][]trace.Access{
		{accesses[:half], accesses[half:]},
		{accesses[half:], accesses[:half]},
	}
	best := DefaultConfig()
	bestMisses := ^uint64(0)
	for _, ths := range grid {
		cfg := Config{Thresholds: ths, DefaultCategory: uint8(len(ths) / 2)}
		if err := cfg.Validate(); err != nil {
			return Config{}, fmt.Errorf("profile: bad grid entry %v: %w", ths, err)
		}
		var misses uint64
		for _, fold := range folds {
			res := belady.Profile(fold[0], entries, ways)
			ht, err := Build(res, cfg)
			if err != nil {
				return Config{}, err
			}
			misses += thermometerMisses(fold[1], entries, ways, ht)
		}
		if misses < bestMisses {
			bestMisses = misses
			best = cfg
		}
	}
	return best, nil
}

// thermometerMisses replays Algorithm 1 over a stream and counts misses.
type cvEntry struct {
	pc    uint64
	temp  uint8
	stamp uint64
}

func thermometerMisses(accesses []trace.Access, entries, ways int, ht *HintTable) uint64 {
	sets := entries / ways
	if sets < 1 {
		sets = 1
	}
	table := make([][]cvEntry, sets)
	temps := ht.Column(accesses)
	var clock, misses uint64
	for i := range accesses {
		a := &accesses[i]
		set := table[a.PC%uint64(sets)]
		clock++
		inTemp := temps[i]
		hit := false
		for w := range set {
			if set[w].pc == a.PC {
				set[w].stamp = clock
				set[w].temp = inTemp
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		misses++
		if len(set) < ways {
			table[a.PC%uint64(sets)] = append(set, cvEntry{pc: a.PC, temp: inTemp, stamp: clock})
			continue
		}
		// Algorithm 1: coldest candidate including the incoming branch;
		// bypass when it is uniquely coldest; LRU among ties.
		coldest := inTemp
		for w := range set {
			if set[w].temp < coldest {
				coldest = set[w].temp
			}
		}
		victim := -1
		for w := range set {
			if set[w].temp == coldest && (victim < 0 || set[w].stamp < set[victim].stamp) {
				victim = w
			}
		}
		if victim < 0 {
			continue // uniquely coldest incoming branch: bypass
		}
		set[victim] = cvEntry{pc: a.PC, temp: inTemp, stamp: clock}
	}
	return misses
}

// ThermometerMissesForTest exposes the internal replay for cross-checking
// against package replay in external tests.
func ThermometerMissesForTest(accesses []trace.Access, entries, ways int, ht *HintTable) uint64 {
	return thermometerMisses(accesses, entries, ways, ht)
}
