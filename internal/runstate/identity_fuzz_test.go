package runstate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzIdentity: whatever bytes sit in identity.json, Open returns an
// error or a store without panicking; a refused Open leaves the file byte
// for byte as it was; and a unit recorded by an accepted store survives a
// crash and a reopen.
func FuzzIdentity(f *testing.F) {
	const probe = "fuzz/probe"
	f.Fuzz(func(t *testing.T, identity []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "identity.json")
		if err := os.WriteFile(path, identity, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, testIdentity())
		if err != nil {
			after, rerr := os.ReadFile(path)
			if rerr != nil || !bytes.Equal(after, identity) {
				t.Fatalf("refused Open (%v) changed identity.json: %q, then %q (%v)", err, identity, after, rerr)
			}
			return
		}
		s.Record(probe, 1)
		kill(s)

		s, err = Open(dir, testIdentity())
		if err != nil {
			t.Fatalf("reopening an accepted directory: %v", err)
		}
		defer s.Close()
		var v int
		if !s.Lookup(probe, &v) || v != 1 {
			t.Fatalf("probe unit reads %d after a crash, want 1", v)
		}
	})
}
