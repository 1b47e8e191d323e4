// Package stats implements the descriptive statistics and regression
// analysis the paper uses in its evaluation: mean, standard deviation,
// coefficient of variation (CV), least-squares linear regression and the r²
// correlation coefficient (paper §5.3).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 for fewer
// than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// CV returns the coefficient of variation: the ratio of the standard
// deviation to the mean (paper §5.4). It returns 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank interpolation. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Regression is the result of a least-squares linear fit y = Slope*x +
// Intercept, with R2 the square of Pearson's correlation coefficient. The
// paper fits scaleup curves with straight lines and reports r² for the
// WIPS/WIRT correlation (§5.3).
type Regression struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the least-squares regression of ys on xs. The two
// slices must have equal length; fewer than two points yield a zero fit.
func LinearFit(xs, ys []float64) Regression {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return Regression{}
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return Regression{Intercept: my}
	}
	slope := sxy / sxx
	reg := Regression{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		r := sxy / math.Sqrt(sxx*syy)
		reg.R2 = r * r
	} else {
		reg.R2 = 1 // all ys equal: the fit is exact
	}
	return reg
}

// Correlation returns Pearson's correlation coefficient between xs and ys,
// or 0 when undefined.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
