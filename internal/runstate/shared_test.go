package runstate

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func sharedIdentity() Identity {
	return Identity{Command: "shared-test", Seeds: map[string]int64{"s": 7}}
}

func openWorkerT(t *testing.T, dir, worker string) *Store {
	t.Helper()
	st, err := OpenWorker(dir, sharedIdentity(), worker)
	if err != nil {
		t.Fatalf("OpenWorker(%s): %v", worker, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestSharedModeMergesSiblingJournals(t *testing.T) {
	dir := t.TempDir()
	a := openWorkerT(t, dir, "a")
	b := openWorkerT(t, dir, "b")
	a.RecordToken("unit/0", "from-a", 1)
	b.RecordToken("unit/1", "from-b", 2)

	// Each worker sees only its own record until it refreshes.
	var v string
	if a.Lookup("unit/1", &v) {
		t.Fatal("a saw b's record before Refresh")
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !a.Lookup("unit/1", &v) || v != "from-b" {
		t.Fatalf("a after refresh: unit/1 = %q, want from-b", v)
	}
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !b.Lookup("unit/0", &v) || v != "from-a" {
		t.Fatalf("b after refresh: unit/0 = %q, want from-a", v)
	}

	// A third worker joining late replays the union at Open.
	c := openWorkerT(t, dir, "c")
	if c.Units() != 2 {
		t.Fatalf("late joiner sees %d units, want 2", c.Units())
	}
}

func TestSharedModeHighestTokenWins(t *testing.T) {
	dir := t.TempDir()
	a := openWorkerT(t, dir, "a")
	b := openWorkerT(t, dir, "b")

	// Identical payloads under distinct tokens: the normal zombie/successor
	// race. A conflict is counted, no determinism violation, highest token
	// retained.
	a.RecordToken("unit/0", 42, 3)
	b.RecordToken("unit/0", 42, 9)
	if err := b.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Conflicts; got != 1 {
		t.Fatalf("conflicts = %d, want 1", got)
	}
	if got := b.Stats().DeterminismViolations; got != 0 {
		t.Fatalf("determinism violations = %d, want 0", got)
	}

	// The merge is order-independent: a ingests b's higher token after its
	// own and must keep b's copy; re-reading the same lines changes nothing.
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Conflicts; got != 1 {
		t.Fatalf("a conflicts = %d, want 1 (idempotent refresh)", got)
	}

	// A lower token arriving later must NOT regress the winner.
	c := openWorkerT(t, dir, "c")
	c.RecordToken("unit/1", "new", 20)
	c.RecordToken("unit/1", "old", 10) // zombie journaling after the successor
	var v string
	if !c.Lookup("unit/1", &v) || v != "new" {
		t.Fatalf("unit/1 = %q, want token-20 record to win", v)
	}
	if got := c.Stats().DeterminismViolations; got == 0 {
		t.Fatal("byte-diverging conflict not counted as determinism violation")
	}
}

func TestSharedModeTokenZeroKeepsLastWins(t *testing.T) {
	dir := t.TempDir()
	a := openWorkerT(t, dir, "a")
	a.RecordToken("unit/0", "first", 0)
	a.RecordToken("unit/0", "second", 0)
	var v string
	if !a.Lookup("unit/0", &v) || v != "second" {
		t.Fatalf("tokenless re-record: unit/0 = %q, want last-wins %q", v, "second")
	}
}

func TestSharedModeSealsOwnTornTail(t *testing.T) {
	dir := t.TempDir()
	w := openWorkerT(t, dir, "w1")
	w.RecordToken("unit/0", 1, 1)
	path := filepath.Join(dir, "journal-w1.jsonl")
	w.Close()

	// Simulate a SIGKILL mid-append: a torn, newline-less final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":"unit/1","payl`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The restarted incarnation seals the tail so siblings stop treating
	// it as an in-flight append, skips it, and keeps the good line.
	w2 := openWorkerT(t, dir, "w1")
	var v int
	if !w2.Lookup("unit/0", &v) || v != 1 {
		t.Fatalf("good line lost after reopen: %v", v)
	}
	if w2.Lookup("unit/1", &v) {
		t.Fatal("torn line resurrected")
	}
	if got := w2.Stats().SkippedPartial; got != 1 {
		t.Fatalf("skipped-partial counter = %d, want 1", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatal("torn tail not sealed with a newline")
	}

	// A sibling refreshing past the sealed tail skips it too, without
	// stalling on the rest of the file.
	sib := openWorkerT(t, dir, "w2")
	w2.RecordToken("unit/2", 3, 2)
	if err := sib.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !sib.Lookup("unit/2", &v) || v != 3 {
		t.Fatalf("sibling missed post-seal append: %v", v)
	}
}

func TestSharedModeForeignInFlightLineWaits(t *testing.T) {
	dir := t.TempDir()
	a := openWorkerT(t, dir, "a")

	// A sibling's append caught mid-write: complete line + partial line.
	foreign := filepath.Join(dir, "journal-b.jsonl")
	full := `{"v":1,"key":"unit/0","payload":7,"token":4,"worker":"b"}` + "\n"
	if err := os.WriteFile(foreign, []byte(full+`{"v":1,"key":"un`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	var v int
	if !a.Lookup("unit/0", &v) || v != 7 {
		t.Fatalf("complete foreign line not ingested: %v", v)
	}
	if got := a.Stats().SkippedPartial; got != 0 {
		t.Fatalf("in-flight partial wrongly counted as torn (%d)", got)
	}

	// The append completes; the next refresh picks up exactly the rest.
	rest := `it/1","payload":8,"token":5,"worker":"b"}` + "\n"
	f, err := os.OpenFile(foreign, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(rest); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}
	if !a.Lookup("unit/1", &v) || v != 8 {
		t.Fatalf("completed line not ingested on second refresh: %v", v)
	}
}

func TestSharedModeDisablesSnapshot(t *testing.T) {
	dir := t.TempDir()
	w := openWorkerT(t, dir, "w1")
	for i := 0; i < 10; i++ {
		w.RecordToken(fmt.Sprintf("unit/%d", i), i, uint64(i+1))
	}
	if err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot in shared mode: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatal("shared mode wrote a snapshot; journals must stay authoritative")
	}
}

func TestTokenContextRoundTrip(t *testing.T) {
	ctx := WithToken(context.Background(), 42)
	if got := TokenFrom(ctx); got != 42 {
		t.Fatalf("TokenFrom = %d, want 42", got)
	}
	if got := TokenFrom(context.Background()); got != 0 {
		t.Fatalf("TokenFrom without token = %d, want 0", got)
	}
}

// TestConcurrentOpenRefusesMixedIdentities: two workers that find a fresh
// directory together, under different identities, must not both be
// accepted; the one that loses the race to publish identity.json is
// refused.
func TestConcurrentOpenRefusesMixedIdentities(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		dir := t.TempDir()
		var stores [2]*Store
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, cmd := range []string{"a", "b"} {
			wg.Add(1)
			go func(i int, cmd string) {
				defer wg.Done()
				<-start
				stores[i], errs[i] = OpenWorker(dir, Identity{Command: cmd}, cmd)
			}(i, cmd)
		}
		close(start)
		wg.Wait()
		accepted := 0
		for i, st := range stores {
			if st != nil {
				accepted++
				st.Close()
			} else if !errors.Is(errs[i], ErrIdentityMismatch) {
				t.Fatalf("trial %d: refused open returned %v, want ErrIdentityMismatch", trial, errs[i])
			}
		}
		if accepted != 1 {
			t.Fatalf("trial %d: %d of 2 mixed identities accepted, want 1", trial, accepted)
		}
	}
}
