// Package metrics implements the statistical analyses of the paper's
// characterization study: per-branch reuse-distance sequences, the transient
// and holistic variance definitions of §2.3, and the property correlations
// of Fig 8.
package metrics

import (
	"math"
	"sort"

	"thermometer/internal/detmap"
	"thermometer/internal/trace"
)

// ReuseSequences computes, for every static branch, the sequence of
// set-local reuse distances of its BTB accesses: element i is the number of
// *unique* branches that accessed the same BTB set between dynamic access
// i and access i+1 of the branch (the standard reuse-distance definition
// the paper uses, scoped to the associative set, §2.3).
//
// sets is the number of BTB sets used for set scoping.
func ReuseSequences(accesses []trace.Access, sets int) map[uint64][]float64 {
	// For each set, walk its access sub-stream. For each branch, reuse
	// distance = number of distinct PCs between consecutive accesses.
	// Efficient implementation: per set, keep for each PC the position of
	// its last access in the set-stream, and a Fenwick-like structure of
	// "last occurrence" counts so distinct-count queries are O(log n).
	perSet := make(map[int][]int) // set -> indices into accesses
	for i := range accesses {
		s := int(accesses[i].PC % uint64(sets))
		perSet[s] = append(perSet[s], i)
	}
	out := make(map[uint64][]float64, 1<<10)
	for _, set := range detmap.SortedKeys(perSet) {
		idxs := perSet[set]
		n := len(idxs)
		if n == 0 {
			continue
		}
		// Offline distinct-counting with a BIT over "last occurrence"
		// positions: classic algorithm. Process stream positions left to
		// right; when PC reappears, the distinct count in (prev, cur) is
		// query(cur-1) - query(prev), where the BIT marks the latest
		// occurrence position of each distinct PC seen so far.
		bit := make([]int, n+1)
		add := func(i, v int) {
			for i++; i <= n; i += i & (-i) {
				bit[i] += v
			}
		}
		query := func(i int) int { // prefix sum over [0, i]
			s := 0
			for i++; i > 0; i -= i & (-i) {
				s += bit[i]
			}
			return s
		}
		lastPos := make(map[uint64]int, 256)
		for cur := 0; cur < n; cur++ {
			pc := accesses[idxs[cur]].PC
			if prev, ok := lastPos[pc]; ok {
				// Unique PCs strictly between prev and cur, excluding the
				// branch itself (whose latest occurrence is at prev).
				distinct := query(cur-1) - query(prev)
				out[pc] = append(out[pc], float64(distinct))
				add(prev, -1)
			}
			add(cur, 1)
			lastPos[pc] = cur
		}
	}
	return out
}

// TransientVariance implements the paper's transient variance (§2.3):
//
//	1/(n−2) · Σ_{i=2..n-1} (a_i − a_{i+1})²
//
// The paper indexes by dynamic access count: a branch accessed n times has
// the reuse-distance vector a_2..a_n with n−1 elements and n−2 consecutive
// differences, and the divisor is the number of differences. The argument
// here is that vector, so with m = len(a) reuse samples this computes
//
//	1/(m−1) · Σ_{i=0..m-2} (a[i] − a[i+1])²
//
// i.e. the mean squared consecutive difference — exactly the paper's
// estimator under m = n−1. Returns 0 for fewer than two samples.
func TransientVariance(a []float64) float64 {
	m := len(a)
	if m < 2 {
		return 0
	}
	var sum float64
	for i := 0; i+1 < m; i++ {
		d := a[i] - a[i+1]
		sum += d * d
	}
	return sum / float64(m-1)
}

// HolisticVariance implements the paper's holistic variance (§2.3):
//
//	1/(n−1) · Σ_{i=2..n} (a_i − ā)²
//
// As in TransientVariance, the paper's n counts dynamic accesses, so the
// sum runs over the n−1 reuse samples a_2..a_n and the divisor equals the
// number of samples. With m = len(a) samples this is the population
// variance
//
//	1/m · Σ_{i=0..m-1} (a[i] − ā)²
//
// — NOT the Bessel-corrected 1/(m−1) sample variance: the paper divides by
// the sample count, and using 1/(m−1) here would break the iid identity
// E[transient] = 2·E[holistic] that underlies Fig 5's >2× observation
// (see TestIIDTransientIsTwiceHolistic). Returns 0 for empty input.
func HolisticVariance(a []float64) float64 {
	m := len(a)
	if m == 0 {
		return 0
	}
	mean := Mean(a)
	var sum float64
	for _, v := range a {
		d := v - mean
		sum += d * d
	}
	return sum / float64(m)
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s / float64(len(a))
}

// VarianceSummary aggregates Fig 5's per-application metric: the average
// transient and holistic variance over branches with at least minSamples
// reuse samples, normalized by the squared mean reuse distance of each
// branch so that branches with different distance scales are comparable.
type VarianceSummary struct {
	Transient float64
	Holistic  float64
	Branches  int
}

// Ratio returns transient / holistic variance (0 if undefined).
func (v VarianceSummary) Ratio() float64 {
	if v.Holistic == 0 {
		return 0
	}
	return v.Transient / v.Holistic
}

// SummarizeVariance computes the Fig 5 aggregate for one access stream.
func SummarizeVariance(accesses []trace.Access, sets, minSamples int) VarianceSummary {
	seqs := ReuseSequences(accesses, sets)
	var sum VarianceSummary
	for _, pc := range detmap.SortedKeys(seqs) {
		a := seqs[pc]
		if len(a) < minSamples {
			continue
		}
		m := Mean(a)
		norm := m*m + 1 // +1 avoids division blow-up for tiny distances
		sum.Transient += TransientVariance(a) / norm
		sum.Holistic += HolisticVariance(a) / norm
		sum.Branches++
	}
	if sum.Branches > 0 {
		sum.Transient /= float64(sum.Branches)
		sum.Holistic /= float64(sum.Branches)
	}
	return sum
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// vectors (0 when undefined).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// SpearmanAbs returns |Spearman rank correlation| of x and y — Fig 8's
// "correlation" between branch properties and temperature is about
// monotonic association, for which rank correlation is the robust choice.
func SpearmanAbs(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	rx, ry := ranks(x), ranks(y)
	return math.Abs(Pearson(rx, ry))
}

// ranks returns average ranks (ties share the mean rank).
func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	out := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j) / 2
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// CDF returns the cumulative fractions of ys (assumed ordered by the
// caller's x-axis): out[i] = Σ ys[0..i] / Σ ys.
func CDF(ys []float64) []float64 {
	total := 0.0
	for _, y := range ys {
		total += y
	}
	out := make([]float64, len(ys))
	run := 0.0
	for i, y := range ys {
		run += y
		if total > 0 {
			out[i] = run / total
		}
	}
	return out
}
