package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatalf("Mean = %v, want 4", Mean([]float64{2, 4, 6}))
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("perfect positive correlation = %v, want 1", r)
	}
	neg := []float64{-1, -2, -3, -4}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, -1, 1e-12) {
		t.Fatalf("perfect negative correlation = %v, want -1", r)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 1, 4, 3, 5}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 0.8, 1e-12) {
		t.Fatalf("Pearson = %v, want 0.8", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single pair accepted")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
	if _, err := Pearson([]float64{2, 3}, []float64{1, 1}); err == nil {
		t.Fatal("constant y accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22", "extra")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") {
		t.Fatalf("row missing: %q", lines[2])
	}
	if !strings.Contains(lines[3], "extra") {
		t.Fatalf("extra cell missing: %q", lines[3])
	}
}

// Property: Pearson is invariant under positive affine transforms and
// bounded by 1 in magnitude.
func TestQuickPearsonInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r1, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate draw: constant input
		}
		if math.Abs(r1) > 1+1e-12 {
			return false
		}
		// Affine transform of x with positive scale.
		xt := make([]float64, n)
		for i := range xs {
			xt[i] = 3*xs[i] + 7
		}
		r2, err := Pearson(xt, ys)
		if err != nil {
			return false
		}
		return almostEq(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
