package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// gatedMetrics are the units compare gates on. For each, higher is worse.
// B/op stands beside allocs/op because go test prints allocs/op truncated
// to an integer: a change that grows its allocations' sizes, or their
// count by less than one per op, moves only B/op.
var gatedMetrics = []string{"ns/op", "B/op", "allocs/op"}

// Summary is one side's samples of one metric.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Row compares one metric of one benchmark between base and change.
type Row struct {
	Pkg    string  `json:"pkg,omitempty"`
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Base   Summary `json:"base"`
	Change Summary `json:"change"`
	// Ratio is the change median over the base median; it is absent
	// when the base median is 0.
	Ratio *float64 `json:"ratio,omitempty"`
	// P is the one-sided Mann-Whitney p-value that the change's samples
	// are larger than the base's.
	P         float64 `json:"p"`
	Regressed bool    `json:"regressed"`
}

// Comparison is the outcome of comparing two reports.
type Comparison struct {
	Rows []Row `json:"results"`
	// New and Gone name the benchmarks present on one side only; they
	// are reported, not gated.
	New         []string `json:"new,omitempty"`
	Gone        []string `json:"gone,omitempty"`
	Regressions int      `json:"regressions"`
}

// runCompare implements `benchjson compare old.json new.json`. It
// returns the process exit code: 0 when no gated metric regressed, 1
// otherwise; errors (bad arguments, unreadable files, no benchmark in
// common) are returned instead.
func runCompare(args []string, w io.Writer) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("compare needs exactly two files: old.json new.json")
	}
	oldRep, err := loadReport(args[0])
	if err != nil {
		return 0, err
	}
	newRep, err := loadReport(args[1])
	if err != nil {
		return 0, err
	}
	c, err := compare(oldRep, newRep)
	if err != nil {
		return 0, err
	}
	c.print(w)
	if c.Regressions > 0 {
		return 1, nil
	}
	return 0, nil
}

// benchKey identifies a benchmark across reports.
type benchKey struct{ pkg, name string }

func (k benchKey) String() string {
	if k.pkg == "" {
		return k.name
	}
	// Keep only the last path element; full import paths blow the column.
	return k.pkg[strings.LastIndex(k.pkg, "/")+1:] + "." + k.name
}

// group collects each benchmark's samples, one per result line, in the
// order the benchmarks first appear.
func group(rep *Report) ([]benchKey, map[benchKey][]Benchmark) {
	var keys []benchKey
	by := map[benchKey][]Benchmark{}
	for _, b := range rep.Benchmarks {
		k := benchKey{b.Pkg, b.Name}
		if _, ok := by[k]; !ok {
			keys = append(keys, k)
		}
		by[k] = append(by[k], b)
	}
	return keys, by
}

// compare gates newRep against oldRep: a metric regresses when the new
// median exceeds the old by more than minEffect (any nonzero value
// against a zero median counts) and mannWhitneyP finds the new samples
// larger at level alpha. With the gate's ten rounds per side the
// smallest attainable p is 1/C(20,10) ≈ 5.4e-6.
func compare(oldRep, newRep *Report) (*Comparison, error) {
	oldKeys, oldBy := group(oldRep)
	newKeys, newBy := group(newRep)
	c := &Comparison{}
	for _, k := range oldKeys {
		if _, ok := newBy[k]; !ok {
			c.Gone = append(c.Gone, k.String())
		}
	}
	for _, k := range newKeys {
		olds, ok := oldBy[k]
		if !ok {
			c.New = append(c.New, k.String())
			continue
		}
		for _, unit := range gatedMetrics {
			x, y := values(olds, unit), values(newBy[k], unit)
			if len(x) == 0 || len(y) == 0 {
				continue
			}
			r := Row{Pkg: k.pkg, Name: k.name, Metric: unit,
				Base: summarize(x), Change: summarize(y), P: mannWhitneyP(x, y)}
			worse := r.Change.Median > r.Base.Median*(1+minEffect)
			if r.Base.Median != 0 {
				ratio := r.Change.Median / r.Base.Median
				r.Ratio = &ratio
			}
			r.Regressed = worse && r.P < alpha
			if r.Regressed {
				c.Regressions++
			}
			c.Rows = append(c.Rows, r)
		}
	}
	if len(c.Rows) == 0 {
		return nil, fmt.Errorf("no benchmarks in common between the two reports")
	}
	return c, nil
}

// values returns one metric's samples.
func values(samples []Benchmark, unit string) []float64 {
	var v []float64
	for _, b := range samples {
		if x, ok := b.Metrics[unit]; ok {
			v = append(v, x)
		}
	}
	return v
}

func (c *Comparison) print(w io.Writer) {
	fmt.Fprintf(w, "%-54s %-9s %31s %31s %7s %8s\n",
		"benchmark", "metric", "base median [q1 q3]", "change median [q1 q3]", "ratio", "p")
	for _, r := range c.Rows {
		ratio := "+inf"
		switch {
		case r.Ratio != nil:
			ratio = fmt.Sprintf("%.3f", *r.Ratio)
		case r.Change.Median == 0:
			ratio = "-"
		}
		mark := ""
		if r.Regressed {
			mark = "  REGRESSION"
		}
		fmt.Fprintf(w, "%-54s %-9s %31s %31s %7s %8.2g%s\n", benchKey{r.Pkg, r.Name}, r.Metric,
			formatSummary(r.Base), formatSummary(r.Change), ratio, r.P, mark)
	}
	for _, name := range c.New {
		fmt.Fprintf(w, "%-54s (new: not in base)\n", name)
	}
	for _, name := range c.Gone {
		fmt.Fprintf(w, "%-54s (gone: not in change)\n", name)
	}
	if c.Regressions > 0 {
		fmt.Fprintf(w, "\n%d metric(s) regressed: median worse by more than %.0f%% at p < %g\n",
			c.Regressions, minEffect*100, alpha)
		return
	}
	fmt.Fprintf(w, "\nno regressions (median worse by more than %.0f%% at p < %g) across %d metrics\n",
		minEffect*100, alpha, len(c.Rows))
}

func formatSummary(s Summary) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", s.Median, s.Q1, s.Q3)
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// summarize returns the sample's size, median and quartiles.
func summarize(v []float64) Summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return Summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// quantile interpolates linearly between the order statistics of a
// sorted, non-empty sample.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// mannWhitneyP returns the exact one-sided p-value of the Mann-Whitney U
// test that y's values tend to exceed x's: the share of all C(n, len(y))
// equally likely splits of the pooled sample whose y-part has a rank sum
// at least the observed one. Tied values share their mean rank and the
// distribution is taken over those ranks, so the p-value stays exact
// under ties; samples that are all equal give 1. The count runs over
// doubled ranks (integers) in O(n·len(y)·n²) time, which is meant for the
// gate's ten-or-so samples a side.
func mannWhitneyP(x, y []float64) float64 {
	n := len(x) + len(y)
	if len(x) == 0 || len(y) == 0 {
		return 1
	}
	type obs struct {
		v    float64
		isY  bool
		rank int // doubled mid-rank
	}
	pooled := make([]obs, 0, n)
	for _, v := range x {
		pooled = append(pooled, obs{v: v})
	}
	for _, v := range y {
		pooled = append(pooled, obs{v: v, isY: true})
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i].v < pooled[j].v })
	observed := 0
	for i := 0; i < n; {
		j := i
		for j+1 < n && pooled[j+1].v == pooled[i].v {
			j++
		}
		// Ranks i+1 … j+1 share their mean, (i+j+2)/2; doubled, i+j+2.
		for k := i; k <= j; k++ {
			pooled[k].rank = i + j + 2
			if pooled[k].isY {
				observed += i + j + 2
			}
		}
		i = j + 1
	}
	// ways[k][s] counts the k-subsets of the items seen so far whose
	// doubled ranks sum to s.
	maxSum := n * (n + 1)
	ways := make([][]float64, len(y)+1)
	for k := range ways {
		ways[k] = make([]float64, maxSum+1)
	}
	ways[0][0] = 1
	for i, o := range pooled {
		for k := min(i+1, len(y)); k >= 1; k-- {
			for s := maxSum; s >= o.rank; s-- {
				ways[k][s] += ways[k-1][s-o.rank]
			}
		}
	}
	var total, tail float64
	for s, c := range ways[len(y)] {
		total += c
		if s >= observed {
			tail += c
		}
	}
	return tail / total
}
