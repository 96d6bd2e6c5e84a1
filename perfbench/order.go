package main

import (
	"sort"

	"thermometer/internal/workload"
	"thermometer/internal/xrand"
)

// stratifiedOrder is the seed's op order over items grouped into strata of
// similar cost. Each round takes one item from every stratum, so every
// prefix of the order, however many ops a run fits in, holds the strata in
// near-equal shares. Within a round the strata are visited with a stride
// near the golden section of their count, so consecutive ops differ in
// cost; the seed shuffles the items of each stratum and picks where each
// round starts.
func stratifiedOrder(seed, salt uint64, strata [][]int) []int {
	rng := xrand.New(xrand.Mix64(seed ^ salt))
	m, rounds, total := len(strata), 0, 0
	for _, s := range strata {
		rounds = max(rounds, len(s))
		total += len(s)
	}
	shuffled := make([][]int, m)
	for j, s := range strata {
		shuffled[j] = make([]int, len(s))
		for i, p := range rng.Perm(len(s)) {
			shuffled[j][i] = s[p]
		}
	}
	step := goldenStride(m)
	order := make([]int, 0, total)
	for r := 0; r < rounds; r++ {
		off := rng.Intn(m)
		for k := 0; k < m; k++ {
			if s := shuffled[(off+k*step)%m]; r < len(s) {
				order = append(order, s[r])
			}
		}
	}
	return order
}

// goldenStride is the stride near 0.618·m that is coprime with m, so that
// stepping by it visits all m strata once.
func goldenStride(m int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	s := max(1, int(0.618*float64(m)+0.5))
	for gcd(s, m) != 1 {
		s++
	}
	return s
}

// warmTrace is the suite trace set-up warms up on, the last IPC-1 trace.
// It is the same for every seed, so set-up time does not depend on the
// seed, and no timed op uses it.
const warmTrace = workload.CBP5Count + workload.IPC1Count - 1

// suiteStratum is how many suite traces of neighbouring cost form one
// stratum.
const suiteStratum = 3

// suiteOrder is the seed's order of the suite traces other than warmTrace,
// as indices over CBP-5 then IPC-1. An op's time depends on whether the
// trace sweeps its code (one or two loops per phase) or loops in kernels,
// and grows with its footprint (150 to 45,000 static branches); its
// instruction count grows with the mean block length (3 to 5). The traces
// are stratified by all three, so a run of any length sees the whole range
// in equal shares.
func suiteOrder(seed uint64, salt uint64) []int {
	idx := make([]int, warmTrace)
	key := make([][3]int, warmTrace)
	for i := range idx {
		s := suiteSpec(i)
		sweep := 0
		if s.LoopsPerPhase <= 2 {
			sweep = 1
		}
		idx[i], key[i] = i, [3]int{sweep, s.MeanBlockLen, s.HotBranches + s.WarmBranches + s.ColdBranches}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := key[idx[a]], key[idx[b]]
		for j := range ka {
			if ka[j] != kb[j] {
				return ka[j] < kb[j]
			}
		}
		return false
	})
	var strata [][]int
	for lo := 0; lo < len(idx); lo += suiteStratum {
		strata = append(strata, idx[lo:min(lo+suiteStratum, len(idx))])
	}
	return stratifiedOrder(seed, salt, strata)
}

// suiteSpec resolves a suiteOrder index.
func suiteSpec(i int) workload.AppSpec {
	if i < workload.CBP5Count {
		return workload.CBP5Spec(i)
	}
	return workload.IPC1Spec(i - workload.CBP5Count)
}

// gridOrder is the seed's order of a grid of apps × kinds cells (cell
// index app·kinds + kind): one stratum per kind, so any prefix holds every
// kind in near-equal shares.
func gridOrder(seed, salt uint64, apps, kinds int) []int {
	strata := make([][]int, kinds)
	for k := range strata {
		for a := 0; a < apps; a++ {
			strata[k] = append(strata[k], a*kinds+k)
		}
	}
	return stratifiedOrder(seed, salt, strata)
}
