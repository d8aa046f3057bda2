package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"commsched/internal/runstate"
)

// TestAdversarialQuick: the quick-scale adversarial search must find at
// least one family where plain HEFT trails the Tabu-refined placement by
// the acceptance gap (AdvGapTarget), with every evaluated schedule pair
// validated against the schedule-validity invariants.
func TestAdversarialQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("search-heavy")
	}
	cfg := QuickAdvConfig()
	r, err := Adversarial(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Families) * cfg.Restarts; len(r.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(r.Rows), want)
	}
	for _, row := range r.Rows {
		if row.BestRatio < row.StartRatio-1e-9 {
			t.Fatalf("%s/r%d: climb lost ground: best %.4f < start %.4f",
				row.Family, row.Restart, row.BestRatio, row.StartRatio)
		}
		if row.BestRatio < 1-1e-6 {
			t.Fatalf("%s/r%d: ratio %.4f below 1 — refinement should never beat its own seed backwards",
				row.Family, row.Restart, row.BestRatio)
		}
		if want := cfg.Steps + 1; row.Validated != want {
			t.Fatalf("%s/r%d: validated %d schedule pairs, want %d",
				row.Family, row.Restart, row.Validated, want)
		}
		if row.Tasks < 8 || row.Edges == 0 {
			t.Fatalf("%s/r%d: degenerate final instance (%d tasks, %d edges)",
				row.Family, row.Restart, row.Tasks, row.Edges)
		}
	}
	if r.BestRatio < AdvGapTarget {
		t.Fatalf("best adversarial gap %.4f below the %.2f acceptance target", r.BestRatio, AdvGapTarget)
	}
	table := r.Table()
	for _, want := range []string{"best_ratio", "layered", "forkjoin", "random", "target >= 1.20x: true"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestAdversarialValidation(t *testing.T) {
	bad := []AdvConfig{
		{},
		{Families: []string{"mesh"}, Restarts: 1, Tasks: 24, Procs: 4},
		{Families: []string{"layered"}, Restarts: 0, Tasks: 24, Procs: 4},
		{Families: []string{"layered"}, Restarts: 1, Tasks: 4, Procs: 4},
		{Families: []string{"layered"}, Restarts: 1, Tasks: 24, Procs: 1},
	}
	for i, cfg := range bad {
		if _, err := Adversarial(nil, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestAdversarialCancellable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Adversarial(ctx, QuickAdvConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAdversarialDeterminism: the search result is a pure function of
// the config — one worker and the default worker count must emit
// byte-identical CSVs, and so must a repeat run.
func TestAdversarialDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("search-heavy")
	}
	cfg := QuickAdvConfig()
	cfg.Restarts = 1
	cfg.Steps = 6

	emit := func() []byte {
		r, err := Adversarial(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	single := emit()
	runtime.GOMAXPROCS(old)
	parallel := emit()
	if !bytes.Equal(single, parallel) {
		t.Fatalf("GOMAXPROCS=1 and GOMAXPROCS=%d CSVs differ:\nsingle:\n%s\nparallel:\n%s", old, single, parallel)
	}
	if !bytes.Equal(parallel, emit()) {
		t.Fatal("repeat run differs")
	}
}

// TestAdversarialResume: each climb is one durable unit, so a rerun over
// the same store replays every row without recomputation.
func TestAdversarialResume(t *testing.T) {
	if testing.Short() {
		t.Skip("search-heavy")
	}
	cfg := QuickAdvConfig()
	cfg.Restarts = 1
	cfg.Steps = 4
	dir := t.TempDir()
	id := runstate.Identity{Command: "adversarial-test"}

	st, err := runstate.Open(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	runstate.SetStore(st)
	first, err := Adversarial(nil, cfg)
	runstate.SetStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Stats().Recorded, int64(len(cfg.Families)); got < want {
		t.Fatalf("recorded = %d, want >= %d (one unit per climb)", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := runstate.Open(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	runstate.SetStore(st2)
	second, err := Adversarial(nil, cfg)
	runstate.SetStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got, want := st2.Stats().Hits, int64(len(cfg.Families)); got < want {
		t.Fatalf("hits = %d, want >= %d (climbs must replay)", got, want)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatalf("resumed rows differ:\n got %+v\nwant %+v", second.Rows, first.Rows)
	}

	// A third run over the same store replays the same units again.
	st3, err := runstate.Open(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	runstate.SetStore(st3)
	third, err := Adversarial(nil, cfg)
	runstate.SetStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got, want := st3.Stats().Hits, int64(len(cfg.Families)); got < want {
		t.Fatalf("rerun hits = %d, want >= %d", got, want)
	}
	if !reflect.DeepEqual(first.Rows, third.Rows) {
		t.Fatal("rerun rows differ from the originals")
	}
}

// TestGoldenAdversarialCSV pins the quick-scale adversarial study: the
// search is a pure function of its seeds, so the CSV must be byte-stable
// across runs and platforms.
func TestGoldenAdversarialCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("search-heavy")
	}
	r, err := Adversarial(nil, QuickAdvConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig_adversarial_quick.csv", buf.Bytes())
}
