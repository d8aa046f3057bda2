package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"commsched/internal/runstate"
	"commsched/internal/topology"
)

func specEval() JobSpec {
	return JobSpec{
		Kind:     KindEvaluate,
		Generate: &topology.Spec{Kind: "ring", Switches: 4},
		Assign:   []int{0, 1, 0, 1},
		M:        2,
	}
}

func TestMemStoreBasics(t *testing.T) {
	m := NewMemStore()
	j := Job{ID: "a", Seq: 1, Spec: specEval(), State: StateQueued}
	if err := m.Create(&j); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := m.Create(&j); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if err := m.Update(&Job{ID: "nope"}); err == nil {
		t.Fatal("update of unknown job must fail")
	}
	j.State = StateDone
	j.Result = json.RawMessage(`{"x":1}`)
	if err := m.Update(&j); err != nil {
		t.Fatalf("update: %v", err)
	}
	got, ok := m.Get("a")
	if !ok || got.State != StateDone {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	// Copies must not alias: mutating what Get returned cannot corrupt
	// the store, and mutating the caller's job after Create cannot either.
	got.Result[2] = 'y'
	got.Spec.Assign[0] = 9
	again, _ := m.Get("a")
	if string(again.Result) != `{"x":1}` || again.Spec.Assign[0] != 0 {
		t.Fatalf("store shares memory with callers: %s %v", again.Result, again.Spec.Assign)
	}
	if m.MaxSeq() != 1 {
		t.Fatalf("MaxSeq = %d, want 1", m.MaxSeq())
	}
}

func TestMemStoreListOrdersBySeq(t *testing.T) {
	m := NewMemStore()
	for _, seq := range []int64{3, 1, 2} {
		m.Create(&Job{ID: string(rune('a' + seq)), Seq: seq}) //nolint:errcheck // ids are unique
	}
	list := m.List()
	if len(list) != 3 || list[0].Seq != 1 || list[2].Seq != 3 {
		t.Fatalf("list must order by Seq, got %+v", list)
	}
}

func TestDurableStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurableStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j1 := Job{ID: "j1", Seq: 1, Spec: specEval(), State: StateQueued}
	j2 := Job{ID: "j2", Seq: 2, Spec: specEval(), State: StateQueued}
	if err := ds.Create(&j1); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := ds.Create(&j2); err != nil {
		t.Fatalf("create: %v", err)
	}
	j1.State = StateDone
	j1.Result = json.RawMessage(`{"cc":2.5}`)
	if err := ds.Update(&j1); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := OpenDurableStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.MaxSeq() != 2 {
		t.Fatalf("MaxSeq after reopen = %d, want 2", re.MaxSeq())
	}
	got, ok := re.Get("j1")
	if !ok || got.State != StateDone {
		t.Fatalf("reopened j1 = %+v (ok=%v): the LAST journaled record must win", got, ok)
	}
	// The snapshot may re-indent embedded raw JSON; the value must match.
	var buf bytes.Buffer
	if err := json.Compact(&buf, got.Result); err != nil || buf.String() != `{"cc":2.5}` {
		t.Fatalf("reopened result = %q (%v)", got.Result, err)
	}
	if got, ok := re.Get("j2"); !ok || got.State != StateQueued {
		t.Fatalf("reopened j2 = %+v (ok=%v)", got, ok)
	}
}

// The SIGKILL shape: the first store is never Closed, yet every record
// it acknowledged must be visible to a fresh open — Create/Update fsync
// the journal before returning.
func TestDurableStoreSurvivesKillWithoutClose(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurableStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	j := Job{ID: "j1", Seq: 1, Spec: specEval(), State: StateQueued}
	if err := ds.Create(&j); err != nil {
		t.Fatalf("create: %v", err)
	}
	j.State = StateRunning
	j.Attempts = 1
	if err := ds.Update(&j); err != nil {
		t.Fatalf("update: %v", err)
	}
	// No Close: the process "died" here.
	re, err := OpenDurableStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	got, ok := re.Get("j1")
	if !ok || got.State != StateRunning || got.Attempts != 1 {
		t.Fatalf("un-Closed store lost an acknowledged record: %+v (ok=%v)", got, ok)
	}
}

// A state directory written by a different schema (or a different tool
// entirely) must be refused with ErrIdentityMismatch — never silently
// reinterpreted as an empty job table.
func TestDurableStoreSchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	alien, err := runstate.Open(jobsDir(dir), runstate.Identity{
		Command: "commschedd",
		Seeds:   map[string]int64{"store_schema": storeSchema + 1},
	})
	if err != nil {
		t.Fatalf("seeding alien store: %v", err)
	}
	alien.Record("job/x", Job{ID: "x"})
	if err := alien.Close(); err != nil {
		t.Fatalf("alien close: %v", err)
	}
	_, err = OpenDurableStore(dir)
	if !errors.Is(err, runstate.ErrIdentityMismatch) {
		t.Fatalf("want ErrIdentityMismatch, got %v", err)
	}
}

// TestLoadJobsReadsWithoutWriting reads a live daemon's state directory:
// jobs from the snapshot and from the journal come back in Seq order,
// the last record of each job winning; a final record that still lacks
// its newline (an append in flight) is not read; and no file in the
// directory is created, removed or changed.
func TestLoadJobsReadsWithoutWriting(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1 := Job{ID: "j1", Seq: 1, Spec: specEval(), State: StateQueued}
	j2 := Job{ID: "j2", Seq: 2, Spec: specEval(), State: StateQueued}
	for _, j := range []*Job{&j2, &j1} {
		if err := ds.Create(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil { // j1 and j2 go to the snapshot
		t.Fatal(err)
	}
	live, err := OpenDurableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	j1.State = StateDone
	j3 := Job{ID: "j3", Seq: 3, Spec: specEval(), State: StateRunning}
	if err := live.Update(&j1); err != nil {
		t.Fatal(err)
	}
	if err := live.Create(&j3); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(jobsDir(dir), "journal.jsonl")
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString(`{"v":1,"key":"job/j4","payload":{"id":"j4","seq":4,"state":"queued"}}`)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)

	jobs, err := LoadJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, j := range jobs {
		got = append(got, fmt.Sprintf("%s:%d:%s", j.ID, j.Seq, j.State))
	}
	if want := []string{"j1:1:done", "j2:2:queued", "j3:3:running"}; !slices.Equal(got, want) {
		t.Fatalf("LoadJobs = %v, want %v", got, want)
	}
	if after := readTree(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Fatalf("LoadJobs changed the state directory:\nbefore %q\nafter  %q", before, after)
	}
}

// readTree maps every file under dir to its bytes.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		files[path], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestCkptRootLayout(t *testing.T) {
	if got := CkptRoot("/state"); got != filepath.Join("/state", "ckpt") {
		t.Fatalf("CkptRoot = %q", got)
	}
}
