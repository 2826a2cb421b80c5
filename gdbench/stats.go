package main

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile applies the benchmark's tail rule: the highest
// percentile that still has at least ten samples beyond it, which is the
// eleventh-largest sample, labelled as the 100*(n-10)/n-th percentile.
// With fewer than forty samples that percentile would be no tail, so the
// rule reports the median (labelled 50).
func tailPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 40 {
		return median(xs), 50
	}
	s := sortedCopy(xs)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// so spreads printed here match those computed from the same values in
// Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0, 0, 0, false
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}
