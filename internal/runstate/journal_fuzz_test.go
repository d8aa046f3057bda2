package runstate

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzJournalReplay: whatever bytes a crash left in journal.jsonl, Open
// returns an error or a store without panicking, and a unit recorded
// after that resume survives the next crash beside every unit the resume
// replayed.
func FuzzJournalReplay(f *testing.F) {
	const probe = "fuzz/probe"
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, testIdentity())
		if err != nil {
			return
		}
		replayed := s.Keys("")
		s.Record(probe, 1)
		kill(s)

		s, err = Open(dir, testIdentity())
		if err != nil {
			t.Fatalf("reopening after a recorded unit: %v", err)
		}
		defer s.Close()
		keys := s.Keys("")
		for _, k := range append(replayed, probe) {
			if !slices.Contains(keys, k) {
				t.Fatalf("unit %q lost across a crash: replayed %q, then %q", k, replayed, keys)
			}
		}
		// Unless the journal already held the probe's key, its only
		// record is the one appended above.
		var v int
		if !slices.Contains(replayed, probe) && (!s.Lookup(probe, &v) || v != 1) {
			t.Fatalf("probe unit reads %d after a crash, want 1", v)
		}
	})
}
