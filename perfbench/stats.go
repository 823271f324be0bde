package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a reported tail
// percentile: the tail is the highest percentile still backed by this many
// slower samples, so it never rests on one or two outliers.
const tailBeyond = 10

// quantile is a statistic computed from raw samples, with the sample count
// (and, for tails, the percentile it stands for) recorded beside it.
type quantile struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"samples_beyond"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median matches Python's statistics.median: the middle sample, or the
// mean of the two middle samples.
func median(xs []float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	s := sorted(xs)
	v := s[n/2]
	if n%2 == 0 {
		v = (s[n/2-1] + s[n/2]) / 2
	}
	return quantile{Value: v, Percentile: 50, Samples: n, Beyond: n / 2}
}

// tail returns the highest percentile that has at least tailBeyond samples
// beyond it: the (tailBeyond+1)-th largest sample, at percentile
// 100*(n-tailBeyond)/n. With too few samples it falls back to the maximum
// and records how many samples lie beyond it (none).
func tail(xs []float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{Value: math.NaN()}
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return quantile{Value: s[n-1], Percentile: 100, Samples: n}
	}
	i := n - tailBeyond - 1
	return quantile{Value: s[i], Percentile: 100 * float64(n-tailBeyond) / float64(n), Samples: n, Beyond: tailBeyond}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
