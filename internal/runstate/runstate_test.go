package runstate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"commsched/internal/obs"
)

func testIdentity() Identity {
	return Identity{
		Command:    "test",
		Scale:      json.RawMessage(`{"cycles":100}`),
		Seeds:      map[string]int64{"sim": 7, "topology": 2000},
		Topologies: map[string]string{"irregular-16": "abc123"},
	}
}

type point struct {
	Index   int     `json:"index"`
	Rate    float64 `json:"rate"`
	Latency float64 `json:"latency"`
}

func TestRecordReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	want := []point{{0, 0.05, 21.5}, {1, 0.1, 23.75}, {2, 0.15, 31.0625}}
	for i, p := range want {
		s.Record(fmt.Sprintf("sweep/p%d", i), p)
	}
	if st := s.Stats(); st.Recorded != 3 || st.Replayed != 0 {
		t.Fatalf("stats after record: %+v", st)
	}
	// Simulate a crash: drop the store without Close (no snapshot), then
	// reopen and expect every unit back from the journal alone.
	kill(s)

	s2, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Replayed != 3 {
		t.Fatalf("replayed = %d, want 3 (stats %+v)", st.Replayed, st)
	}
	for i, p := range want {
		var got point
		if !s2.Lookup(fmt.Sprintf("sweep/p%d", i), &got) {
			t.Fatalf("unit p%d missing after replay", i)
		}
		if got != p {
			t.Fatalf("unit p%d = %+v, want %+v (must be bit-identical)", i, got, p)
		}
	}
	if !s2.Lookup("sweep/p0", &point{}) {
		t.Fatal("second lookup failed")
	}
	if st := s2.Stats(); st.Hits < 4 {
		t.Fatalf("hits = %d, want >= 4", st.Hits)
	}
}

func TestTornTrailingLineTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	s.Record("a", point{0, 0.05, 20})
	s.Record("b", point{1, 0.10, 30})
	kill(s)

	// Simulate a crash mid-append: a truncated JSON fragment with no
	// trailing newline.
	appendJournal(t, dir, `{"v":1,"key":"c","payload":{"ind`)

	s2, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatalf("torn trailing line must not fail Open: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", st.Replayed)
	}
	if st.SkippedPartial != 1 {
		t.Fatalf("skipped_partial = %d, want 1", st.SkippedPartial)
	}
	if s2.Lookup("c", &point{}) {
		t.Fatal("torn unit must not be visible")
	}
	// The torn unit can be recomputed and re-recorded on the resumed run.
	s2.Record("c", point{2, 0.15, 40})
	var got point
	if !s2.Lookup("c", &got) || got.Index != 2 {
		t.Fatalf("re-recorded unit not visible: %+v", got)
	}
}

// TestWriteFileAtomic: a link publish refuses a path that exists, with an
// error matching fs.ErrExist, and leaves that file as it was; a rename
// publish replaces it; a write that fails leaves no target. No call
// leaves a temp file, and every error names the target.
func TestWriteFileAtomic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		existing bool   // the target holds "old" before the call
		tmpDir   string // the temp directory, under the test's directory
		publish  func(oldname, newname string) error
		wantErr  error  // nil when the call must succeed
		want     string // the target's content after; "" when it must not exist
	}{
		{"link publishes a fresh path", false, "tmp", os.Link, nil, "new"},
		{"link refuses an existing path", true, "tmp", os.Link, fs.ErrExist, "old"},
		{"rename replaces an existing path", true, "tmp", os.Rename, nil, "new"},
		{"missing temp directory", false, "gone", os.Rename, fs.ErrNotExist, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, "tmp"), 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "f")
			if tc.existing {
				if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := WriteFileAtomic(filepath.Join(dir, tc.tmpDir), path, []byte("new"), tc.publish)
			if (tc.wantErr == nil) != (err == nil) || !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name %s", err, path)
			}
			got, rerr := os.ReadFile(path)
			if tc.want == "" && !errors.Is(rerr, fs.ErrNotExist) || tc.want != "" && string(got) != tc.want {
				t.Fatalf("target reads %q (%v), want %q", got, rerr, tc.want)
			}
			var names []string
			for _, sub := range []string{".", "tmp"} {
				entries, err := os.ReadDir(filepath.Join(dir, sub))
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					names = append(names, filepath.Join(sub, e.Name()))
				}
			}
			want := []string{"tmp"}
			if tc.want != "" {
				want = []string{"f", "tmp"}
			}
			if !slices.Equal(names, want) {
				t.Fatalf("directory holds %q, want %q", names, want)
			}
		})
	}
}

// TestLoadChecksIdentity: Load refuses a directory without an identity
// rather than reading it as empty, refuses another run's identity as
// Open does, and reads this run's units; closing what it returns writes
// no snapshot.
func TestLoadChecksIdentity(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir, testIdentity()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load of an empty directory: err = %v, want fs.ErrNotExist", err)
	}
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	s.Record("a", point{Index: 1})
	kill(s)
	other := testIdentity()
	other.Seeds["sim"] = 8
	if _, err := Load(dir, other); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("err = %v, want ErrIdentityMismatch", err)
	}
	ro, err := Load(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	var got point
	if !ro.Lookup("a", &got) || got.Index != 1 || ro.Stats().Replayed != 1 {
		t.Fatalf("Load read %+v, stats %+v", got, ro.Stats())
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("closing a loaded store wrote a snapshot (stat: %v)", err)
	}
}

// kill drops s the way a SIGKILL does: the journal's descriptor closes,
// and nothing is snapshotted or truncated.
func kill(s *Store) {
	s.mu.Lock()
	s.journal.Close()
	s.journal = nil
	s.mu.Unlock()
}

// appendJournal appends raw bytes to the solo journal in dir.
func appendJournal(t *testing.T, dir, raw string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSoloResumeAfterTornTail: when a solo journal ends in a torn
// fragment, or in a whole record that lacks only its newline, the records
// appended after each resume survive the next crash, and so does that
// whole record.
func TestSoloResumeAfterTornTail(t *testing.T) {
	for _, tc := range []struct {
		name, tail string
		resumed    []string // the keys the first resume replays
		next       []string // the keys each resume records before its crash
	}{
		{"torn fragment", `{"v":1,"key":"c","payload":{"ind`, []string{"a", "b"}, []string{"c", "d"}},
		{"missing newline", `{"v":1,"key":"c","payload":{"index":2,"rate":0.15,"latency":40}}`, []string{"a", "b", "c"}, []string{"d", "e"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, testIdentity())
			if err != nil {
				t.Fatal(err)
			}
			s.Record("a", point{0, 0.05, 20})
			s.Record("b", point{1, 0.10, 30})
			kill(s)
			appendJournal(t, dir, tc.tail)

			want := tc.resumed
			for i, key := range tc.next {
				s, err := Open(dir, testIdentity())
				if err != nil {
					t.Fatal(err)
				}
				if got := s.Keys(""); !slices.Equal(got, want) {
					t.Fatalf("resume %d: keys %v, want %v", i+1, got, want)
				}
				s.Record(key, point{Index: len(want)})
				kill(s)
				want = append(want, key)
			}
			s, err = Open(dir, testIdentity())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Keys(""); !slices.Equal(got, want) {
				t.Fatalf("final resume: keys %v, want %v", got, want)
			}
		})
	}
}

func TestIdentityMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	other := testIdentity()
	other.Seeds["sim"] = 8
	if _, err := Open(dir, other); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("err = %v, want ErrIdentityMismatch", err)
	}

	// Same identity still resumes.
	s2, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

// TestIdentitySchemaMismatchRefused writes this run's identity under
// another schema: Open must refuse it and leave the file as it was.
func TestIdentitySchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	id := testIdentity()
	id.Schema = SchemaVersion + 1
	data, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "identity.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, testIdentity()); !errors.Is(err, ErrIdentityMismatch) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("err = %v, want ErrIdentityMismatch", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("refused Open changed identity.json: %q, then %q (%v)", data, after, err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Record(fmt.Sprintf("u%d", i), point{Index: i})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close snapshots and truncates the journal.
	if fi, err := os.Stat(filepath.Join(dir, "journal.jsonl")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal not truncated after snapshot: %v size %d", err, fi.Size())
	}
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SchemaVersion || len(snap.Units) != 5 {
		t.Fatalf("snapshot = schema %d, %d units", snap.Schema, len(snap.Units))
	}

	// Resume from the snapshot, add more units, crash, resume again:
	// snapshot + journal must merge.
	s2, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Replayed != 5 {
		t.Fatalf("replayed from snapshot = %d, want 5", st.Replayed)
	}
	s2.Record("u5", point{Index: 5})
	s2.mu.Lock()
	s2.journal.Close()
	s2.journal = nil
	s2.mu.Unlock()

	s3, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.Replayed != 6 {
		t.Fatalf("replayed from snapshot+journal = %d, want 6", st.Replayed)
	}
}

func TestSchemaVersionRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	s.Record("a", point{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge a future-schema snapshot.
	path := filepath.Join(dir, "snapshot.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forged := strings.Replace(string(data), `"schema": 1`, `"schema": 99`, 1)
	if forged == string(data) {
		t.Fatal("test assumes indented snapshot schema field")
	}
	if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testIdentity()); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema must be refused, got %v", err)
	}
}

func TestConcurrentRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("w%d/u%d", w, i)
				s.Record(key, point{Index: i})
				var got point
				if !s.Lookup(key, &got) {
					t.Errorf("lookup %s failed right after record", key)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Replayed != 200 {
		t.Fatalf("replayed = %d, want 200", st.Replayed)
	}
}

func TestGlobalStoreAndScope(t *testing.T) {
	if Enabled() || Lookup("x", &point{}) {
		t.Fatal("store must start disabled")
	}
	Record("x", point{}) // must be a no-op, not a panic

	dir := t.TempDir()
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	SetStore(s)
	defer SetStore(nil)
	if !Enabled() || Current() != s {
		t.Fatal("SetStore did not install")
	}
	Record("x", point{Index: 9})
	var got point
	if !Lookup("x", &got) || got.Index != 9 {
		t.Fatalf("global lookup = %+v", got)
	}

	ctx := WithScope(context.Background(), "sys=abc/map=def")
	if ScopeFrom(ctx) != "sys=abc/map=def" {
		t.Fatal("scope not round-tripped")
	}
	if ScopeFrom(context.Background()) != "" || ScopeFrom(nil) != "" {
		t.Fatal("missing scope must be empty")
	}
	s.Close()
}

func TestKeyHashStable(t *testing.T) {
	type cfg struct {
		A int
		B float64
	}
	h1 := KeyHash(cfg{1, 0.25})
	h2 := KeyHash(cfg{1, 0.25})
	h3 := KeyHash(cfg{2, 0.25})
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Fatal("distinct configs must hash differently")
	}
	if KeyHash(func() {}) != "unhashable" {
		t.Fatal("unencodable values must degrade to the unhashable sentinel")
	}
}

func TestObsCountersEmitted(t *testing.T) {
	mem := &obs.Memory{}
	obs.SetSink(mem)
	defer obs.SetSink(nil)

	dir := t.TempDir()
	s, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	s.Record("a", point{})
	s.Close()

	s2, err := Open(dir, testIdentity())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	var sawReplay bool
	for _, r := range mem.ByName("runstate.replayed") {
		for _, f := range r.Fields {
			if f.Key == "value" {
				if v, ok := f.Value.(int64); ok && v > 0 {
					sawReplay = true
				}
			}
		}
	}
	if !sawReplay {
		t.Fatal("no runstate.replayed event with positive value on resume")
	}
	if len(mem.ByName("runstate.recorded")) == 0 {
		t.Fatal("no runstate.recorded events")
	}
	if len(mem.ByName("runstate.status")) == 0 {
		t.Fatal("no runstate.status events")
	}
}
