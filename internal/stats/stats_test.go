package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, tc := range cases {
		if got := Mean(tc.xs); !almost(got, tc.want) {
			t.Errorf("Mean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestStdDevAndCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almost(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := CV(xs); !almost(got, 2.0/5.0) {
		t.Errorf("CV = %v, want 0.4", got)
	}
	if got := StdDev([]float64{7}); got != 0 {
		t.Errorf("StdDev single = %v, want 0", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Errorf("CV of zeros = %v, want 0", got)
	}
}

// TestMinMaxPercentile: the 0th and 100th percentiles are the minimum and
// the maximum, the 50th the median.
func TestMinMaxPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 3x - 2, exactly.
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 2
	}
	fit := LinearFit(xs, ys)
	if !almost(fit.Slope, 3) || !almost(fit.Intercept, -2) || !almost(fit.R2, 1) {
		t.Errorf("fit = %+v, want slope 3 intercept -2 r² 1", fit)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if fit := LinearFit([]float64{1}, []float64{2}); fit.Slope != 0 {
		t.Errorf("single point fit = %+v", fit)
	}
	// Vertical data (all same x) must not blow up.
	fit := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if fit.Slope != 0 || !almost(fit.Intercept, 2) {
		t.Errorf("vertical fit = %+v", fit)
	}
	// Flat ys: perfect fit with slope 0.
	fit = LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if !almost(fit.Slope, 0) || !almost(fit.R2, 1) {
		t.Errorf("flat fit = %+v", fit)
	}
}

func TestCorrelationSigns(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	up := []float64{2, 4, 6, 8}
	down := []float64{8, 6, 4, 2}
	if got := Correlation(xs, up); !almost(got, 1) {
		t.Errorf("perfect positive correlation = %v", got)
	}
	if got := Correlation(xs, down); !almost(got, -1) {
		t.Errorf("perfect negative correlation = %v", got)
	}
	if got := Correlation(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("flat correlation = %v", got)
	}
}

// TestFitResidualProperty: the least-squares fit must have zero mean
// residual for any finite data.
func TestFitResidualProperty(t *testing.T) {
	err := quick.Check(func(seedXs, seedYs []int8) bool {
		n := len(seedXs)
		if len(seedYs) < n {
			n = len(seedYs)
		}
		if n < 2 {
			return true
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		allSameX := true
		for i := 0; i < n; i++ {
			xs[i] = float64(seedXs[i])
			ys[i] = float64(seedYs[i])
			if xs[i] != xs[0] {
				allSameX = false
			}
		}
		if allSameX {
			return true
		}
		fit := LinearFit(xs, ys)
		var residual float64
		for i := range xs {
			residual += ys[i] - (fit.Slope*xs[i] + fit.Intercept)
		}
		return math.Abs(residual/float64(n)) < 1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCVScaleInvariant: CV is invariant under positive scaling.
func TestCVScaleInvariant(t *testing.T) {
	err := quick.Check(func(raw []uint8, scale uint8) bool {
		if len(raw) < 2 || scale == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		sum := 0
		for i, v := range raw {
			xs[i] = float64(v) + 1 // keep mean positive
			scaled[i] = xs[i] * float64(scale)
			sum += int(v)
		}
		return math.Abs(CV(xs)-CV(scaled)) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
