// Package runstate is the durable-execution layer: it makes the long
// pipelines of the reproduction (figure sweeps, search restarts,
// resilience trials) crash-safe and resumable. Every completed unit of
// work — one sweep point, one scheduling run, one resilience row — is
// recorded in a write-ahead journal as soon as it finishes; a run
// restarted with the same checkpoint directory replays the journal and
// re-executes only the missing units. Because every unit in this module
// is a pure function of its key (seeds, topology hash, configuration),
// a resumed run is bit-identical to an uninterrupted one.
//
// On-disk layout of a checkpoint directory:
//
//	identity.json  — schema version + run identity (command, scale,
//	                 seeds, topology SHA-256 hashes), written once via
//	                 an atomic hard link that never replaces it; a resume
//	                 (or a sibling worker) whose identity differs is
//	                 refused with ErrIdentityMismatch.
//	journal.jsonl  — the write-ahead log: one JSON object per completed
//	                 unit, appended and fsync'd per record. A torn final
//	                 line (crash mid-write) is tolerated: it is skipped
//	                 and counted, never fatal.
//	snapshot.json  — a compaction of the journal, written via
//	                 tmp-file + fsync + atomic rename on Close; after a
//	                 successful snapshot the journal is truncated.
//
// The package owns the module's durability contract. Every whole-file
// publish, here and in package lease, goes through WriteFileAtomic, and
// every journal line is read by one complete-lines reader (Open, Refresh
// and the read-only Load). A published file is whole or absent after a
// SIGKILL, and a Record that returned survives one. Power loss is not
// covered: no directory is fsync'd, so a create, link or rename can be
// lost with the page cache.
//
// Like obs, the package has a process-wide install point (SetStore) with
// a one-atomic-load disabled path, so instrumented loops cost nothing
// when no -resume flag is given.
package runstate

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"commsched/internal/obs"
)

// SchemaVersion is bumped whenever the journal or snapshot format
// changes incompatibly; directories written by another schema are
// refused instead of being misread.
const SchemaVersion = 1

// ErrIdentityMismatch reports a resume attempt against a checkpoint
// directory produced by a run with different identity (other command,
// scale, seeds, or topologies). Results of the two runs are not
// interchangeable, so the resume is refused.
var ErrIdentityMismatch = errors.New("runstate: checkpoint identity mismatch")

// Identity pins a checkpoint directory to one reproducible run: two runs
// may share a directory exactly when their identities are equal. Commands
// build it from their run manifest (seeds, topology hashes) plus the
// effort scale.
type Identity struct {
	// Schema is filled by Open; callers leave it zero.
	Schema int `json:"schema"`
	// Command is the producing binary ("paperfigs", "netsim", ...).
	Command string `json:"command"`
	// Scale is the JSON encoding of the run's simulation scale/effort.
	Scale json.RawMessage `json:"scale,omitempty"`
	// Seeds are the run's canonical seeds.
	Seeds map[string]int64 `json:"seeds,omitempty"`
	// Topologies maps instance names to SHA-256 hashes of their
	// canonical serialization.
	Topologies map[string]string `json:"topologies,omitempty"`
}

// canonical returns the comparison form of this run's identity: its
// JSON encoding with the schema pinned (Go marshals maps with sorted
// keys, so equal identities encode to equal bytes).
func (id Identity) canonical() ([]byte, error) {
	id.Schema = SchemaVersion
	return json.Marshal(id)
}

// Stats are the store's lifetime counters.
type Stats struct {
	// Replayed counts units loaded from disk at Open — work a resumed
	// run does not repeat.
	Replayed int64 `json:"replayed"`
	// Recorded counts units journaled by this process.
	Recorded int64 `json:"recorded"`
	// Hits counts lookups answered from the store.
	Hits int64 `json:"hits"`
	// SkippedPartial counts torn or corrupt journal lines tolerated at
	// Open (at most the crash-interrupted final append on a healthy
	// filesystem).
	SkippedPartial int64 `json:"skipped_partial"`
	// Conflicts counts keys journaled more than once under distinct
	// fencing tokens — a zombie worker racing its successor, or a
	// speculative duplicate. The highest token wins the merge.
	Conflicts int64 `json:"conflicts"`
	// DeterminismViolations counts conflicting records whose payload
	// bytes differed. Every unit in this module is a pure function of its
	// key, so this gauge is expected to stay zero; anything else is a
	// reproducibility bug worth stopping for.
	DeterminismViolations int64 `json:"determinism_violations"`
}

// Store is one open checkpoint directory. All methods are safe for
// concurrent use; sweep workers record units in parallel.
//
// In shared (distributed) mode — OpenWorker — every worker process
// appends to its own journal-<worker>.jsonl, and the merged view is the
// union of all journals with the highest fencing token winning each key.
// Snapshot compaction is disabled in shared mode: journals stay
// append-only so no worker ever truncates state a sibling still needs.
type Store struct {
	dir      string
	workerID string // "" in solo mode
	shared   bool

	mu      sync.Mutex
	units   map[string]unitEntry
	journal *os.File
	err     error // first write error, surfaced at Close
	// offsets tracks how far each sibling journal has been consumed by
	// Refresh; only complete (newline-terminated) lines are ingested, so
	// a sibling's in-flight append is picked up on a later pass instead
	// of being misread as torn.
	offsets map[string]int64

	replayed       atomic.Int64
	recorded       atomic.Int64
	hits           atomic.Int64
	skippedPartial atomic.Int64
	conflicts      atomic.Int64
	determinism    atomic.Int64
}

// unitEntry is one merged unit: its payload and the fencing token it was
// journaled under (0 for solo-mode records).
type unitEntry struct {
	data  json.RawMessage
	token uint64
}

type journalLine struct {
	V       int             `json:"v"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
	// Token is the fencing token of the lease (or speculation) the unit
	// was computed under; 0 in solo mode. On merge the highest token
	// wins, so a zombie that lost its lease can never clobber the
	// successor's result.
	Token uint64 `json:"token,omitempty"`
	// Worker is the journaling worker's ID (shared mode only).
	Worker string `json:"worker,omitempty"`
}

type snapshotFile struct {
	Schema int                        `json:"schema"`
	Units  map[string]json.RawMessage `json:"units"`
}

// Open creates (or resumes) a checkpoint directory. On a fresh directory
// it writes the identity atomically and starts an empty journal; on an
// existing one it verifies the identity, loads the snapshot, replays the
// journal — tolerating a torn trailing line — and reopens the journal
// for appends. Counters are mirrored into the obs stream so /metrics
// reports checkpoint replay and write activity.
func Open(dir string, id Identity) (*Store, error) {
	return open(dir, id, "")
}

// OpenWorker opens a checkpoint directory in shared (distributed) mode:
// this process journals to journal-<workerID>.jsonl and the replayed
// view merges every worker's journal, highest fencing token winning each
// key. The identity contract is unchanged — all workers of a run must
// agree on it, which refuses mixed-command or mixed-scale fleets.
func OpenWorker(dir string, id Identity, workerID string) (*Store, error) {
	if workerID == "" {
		return nil, fmt.Errorf("runstate: shared mode needs a worker ID")
	}
	return open(dir, id, workerID)
}

func open(dir string, id Identity, workerID string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstate: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstate: creating %s: %w", dir, err)
	}
	want, err := id.canonical()
	if err != nil {
		return nil, fmt.Errorf("runstate: encoding identity: %w", err)
	}
	idPath := filepath.Join(dir, "identity.json")
	data, err := os.ReadFile(idPath)
	if errors.Is(err, fs.ErrNotExist) {
		// The link that publishes the identity never replaces a file: of
		// two openers that find the directory fresh together, one
		// publishes its identity and the other is checked against it.
		data = append(append([]byte{}, want...), '\n')
		if err = WriteFileAtomic(dir, idPath, data, os.Link); errors.Is(err, fs.ErrExist) {
			data, err = os.ReadFile(idPath)
		} else if err != nil {
			return nil, fmt.Errorf("runstate: %w", err)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("runstate: reading %s: %w", idPath, err)
	}
	s, err := load(dir, workerID, data, want)
	if err != nil {
		return nil, err
	}
	// A previous incarnation may have been killed mid-append; seal the
	// torn tail with a newline before replay, so the reopened journal's
	// next record starts on a fresh line and a record that lacks only its
	// newline stays whole (a sealed garbage line is skipped and counted on
	// every replay). Every line is then complete, so replay reads them all.
	if err := sealTornTail(s.journalPath()); err != nil {
		return nil, err
	}
	if s.shared {
		err = s.refreshLocked(true)
	} else {
		err = s.refreshFile(filepath.Base(s.journalPath()))
	}
	if err != nil {
		return nil, err
	}
	j, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstate: opening journal: %w", err)
	}
	s.journal = j
	s.replayed.Store(int64(len(s.units)))

	if obs.Enabled() {
		obs.Event("runstate.replayed", obs.F("value", s.replayed.Load()), obs.F("dir", dir))
		obs.Event("runstate.skipped_partial", obs.F("value", s.skippedPartial.Load()))
		s.emitStatus()
	}
	return s, nil
}

// Load reads a solo checkpoint directory without writing to it: the
// identity must already be there and equal id, and the snapshot plus
// every complete journal line are merged as Open would merge them.
// Nothing is published, sealed or opened for appends, so a directory a
// live process is appending to can be read; a line still in flight, or
// a torn tail that Open would seal, is not read. The store has no
// journal: Record on it is dropped and Close writes nothing.
func Load(dir string, id Identity) (*Store, error) {
	want, err := id.canonical()
	if err != nil {
		return nil, fmt.Errorf("runstate: encoding identity: %w", err)
	}
	idPath := filepath.Join(dir, "identity.json")
	data, err := os.ReadFile(idPath)
	if err != nil {
		return nil, fmt.Errorf("runstate: reading %s: %w", idPath, err)
	}
	s, err := load(dir, "", data, want)
	if err != nil {
		return nil, err
	}
	if err := s.refreshFile(filepath.Base(s.journalPath())); err != nil {
		return nil, err
	}
	s.replayed.Store(int64(len(s.units)))
	return s, nil
}

// load returns the store of dir with its snapshot read, once the
// identity file's bytes, data, decode to the canonical identity want.
// The identity on disk keeps the schema it was written under, so one of
// another schema differs and is refused.
func load(dir, workerID string, data, want []byte) (*Store, error) {
	var have Identity
	if err := json.Unmarshal(data, &have); err != nil {
		return nil, fmt.Errorf("runstate: %s is not a checkpoint identity: %w", filepath.Join(dir, "identity.json"), err)
	}
	got, err := json.Marshal(have)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("%w: %s holds %s, this run is %s",
			ErrIdentityMismatch, dir, summarize(got), summarize(want))
	}
	s := &Store{
		dir: dir, workerID: workerID, shared: workerID != "",
		units:   make(map[string]unitEntry),
		offsets: make(map[string]int64),
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	return s, nil
}

// summarize shortens a canonical identity for error messages.
func summarize(canon []byte) string {
	sum := sha256.Sum256(canon)
	if len(canon) > 96 {
		return fmt.Sprintf("%s… (sha256 %x)", canon[:96], sum[:6])
	}
	return fmt.Sprintf("%s (sha256 %x)", canon, sum[:6])
}

func (s *Store) journalPath() string {
	if s.shared {
		return filepath.Join(s.dir, "journal-"+sanitizeWorker(s.workerID)+".jsonl")
	}
	return filepath.Join(s.dir, "journal.jsonl")
}
func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot.json") }

// Dir returns the checkpoint directory path.
func (s *Store) Dir() string { return s.dir }

// sanitizeWorker keeps worker-derived file names flat and portable.
func sanitizeWorker(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c == '/' || c == '\\' || c == 0 || c == '.' {
			b.WriteByte('_')
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

// sealTornTail appends a newline to path when its last byte is not one —
// the torn final append of a SIGKILLed writer — so reopening the file
// with O_APPEND cannot splice a fresh record onto the garbage.
func sealTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("runstate: sealing journal tail: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		return nil
	}
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, st.Size()-1); err != nil {
		return err
	}
	if buf[0] == '\n' {
		return nil
	}
	if _, err := f.WriteAt([]byte{'\n'}, st.Size()); err != nil {
		return fmt.Errorf("runstate: sealing journal tail: %w", err)
	}
	return f.Sync()
}

func (s *Store) loadSnapshot() error {
	data, err := os.ReadFile(s.snapshotPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("runstate: reading snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("runstate: snapshot corrupt (delete %s to restart): %w", s.snapshotPath(), err)
	}
	if snap.Schema != SchemaVersion {
		return fmt.Errorf("runstate: snapshot schema %d, this binary speaks %d", snap.Schema, SchemaVersion)
	}
	for k, v := range snap.Units {
		s.units[k] = unitEntry{data: v}
	}
	return nil
}

// Refresh ingests any new complete lines sibling workers appended to
// their journals since the last call (shared mode; a no-op otherwise).
// The distributed executor calls it before replaying units completed by
// other workers, so their recorded payloads answer the local lookups.
func (s *Store) Refresh() error {
	if !s.shared {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refreshLocked(false)
}

// refreshLocked scans every journal-*.jsonl (plus the solo journal.jsonl
// a directory may hold from a pre-distributed run) and ingests complete
// lines past the remembered offsets. includeOwn is set for the initial
// replay at Open; afterwards this process's own appends are ingested at
// Record time and its file is skipped.
func (s *Store) refreshLocked(includeOwn bool) error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("runstate: scanning %s: %w", s.dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "journal") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		if !includeOwn && filepath.Join(s.dir, name) == s.journalPath() {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := s.refreshFile(name); err != nil {
			return err
		}
	}
	return nil
}

// refreshFile ingests the complete lines of one journal file past its
// remembered offset; it is the one reader of journal lines, solo and
// shared. A line that fails to parse — the sealed torn tail of a killed
// incarnation — is counted and skipped; an incomplete final line (a
// sibling's append in flight) is left for the next pass. Lines are
// trimmed and blank ones skipped, as obs.ScanJSONLines does.
func (s *Store) refreshFile(name string) error {
	path := filepath.Join(s.dir, name)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("runstate: opening %s: %w", name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	off := s.offsets[name]
	if st.Size() <= off {
		return nil
	}
	buf := make([]byte, st.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
		return fmt.Errorf("runstate: reading %s: %w", name, err)
	}
	last := bytes.LastIndexByte(buf, '\n')
	if last < 0 {
		return nil // only an in-flight partial line so far
	}
	complete := buf[:last+1]
	s.offsets[name] = off + int64(last+1)
	for len(complete) > 0 {
		nl := bytes.IndexByte(complete, '\n')
		line := bytes.TrimSpace(complete[:nl])
		complete = complete[nl+1:]
		if len(line) == 0 {
			continue
		}
		var jl journalLine
		if err := json.Unmarshal(line, &jl); err != nil || jl.Key == "" || jl.V != SchemaVersion {
			s.skippedPartial.Add(1)
			continue
		}
		s.ingestLocked(jl.Key, jl.Payload, jl.Token)
	}
	return nil
}

// ingestLocked merges one journaled record into the unit map under the
// fencing rule: the highest token wins, duplicates count as conflicts,
// and byte-diverging duplicates count as determinism violations (every
// unit is a pure function of its key, so divergence is a bug surfaced
// loudly, never silently resolved).
func (s *Store) ingestLocked(key string, data json.RawMessage, token uint64) {
	old, ok := s.units[key]
	if !ok {
		s.units[key] = unitEntry{data: data, token: token}
		return
	}
	if token == old.token {
		if !bytes.Equal(data, old.data) {
			s.determinism.Add(1)
			obs.Event("runstate.determinism_violation", obs.F("value", s.determinism.Load()), obs.F("key", key))
		}
		if token == 0 {
			// Tokenless re-record (solo mode refreshing a stale unit):
			// last write wins, the historical behavior. Fenced tokens are
			// globally unique, so an equal nonzero token is a re-read of
			// the same line and keeps the first copy.
			s.units[key] = unitEntry{data: data, token: token}
		}
		return
	}
	s.conflicts.Add(1)
	if !bytes.Equal(data, old.data) {
		s.determinism.Add(1)
		obs.Event("runstate.determinism_violation", obs.F("value", s.determinism.Load()), obs.F("key", key))
	}
	if token > old.token {
		s.units[key] = unitEntry{data: data, token: token}
	}
}

// Lookup fetches a completed unit into out (a pointer). It returns false
// when the unit has not been recorded; decoding failure of a recorded
// unit is treated as absence (the unit is recomputed and re-recorded).
func (s *Store) Lookup(key string, out any) bool {
	s.mu.Lock()
	entry, ok := s.units[key]
	s.mu.Unlock()
	if !ok {
		return false
	}
	if err := json.Unmarshal(entry.data, out); err != nil {
		return false
	}
	s.hits.Add(1)
	return true
}

// Record journals one completed unit: the line is appended and fsync'd
// before Record returns, so a SIGKILL immediately after never loses the
// unit. Write failures are remembered (first error wins), reported once
// through obs, and surfaced at Close — the run itself keeps going; a
// broken checkpoint disk must not fail otherwise-healthy science.
func (s *Store) Record(key string, payload any) {
	s.RecordToken(key, payload, 0)
}

// RecordToken is Record under a fencing token: the journal line carries
// the token of the lease (or speculation) the unit was computed under,
// and the merge keeps the highest token per key. Distributed executions
// thread their token through the context (WithToken), so instrumented
// loops never see the difference.
func (s *Store) RecordToken(key string, payload any, token uint64) {
	data, err := json.Marshal(payload)
	if err != nil {
		s.fail(fmt.Errorf("runstate: encoding unit %q: %w", key, err))
		return
	}
	line, err := json.Marshal(journalLine{V: SchemaVersion, Key: key, Payload: data, Token: token, Worker: s.workerID})
	if err != nil {
		s.fail(fmt.Errorf("runstate: encoding journal line %q: %w", key, err))
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	if s.err == nil && s.journal != nil {
		if _, werr := s.journal.Write(line); werr != nil {
			s.failLocked(fmt.Errorf("runstate: journal append: %w", werr))
		} else if serr := s.journal.Sync(); serr != nil {
			s.failLocked(fmt.Errorf("runstate: journal fsync: %w", serr))
		} else {
			s.ingestLocked(key, data, token)
		}
	}
	s.mu.Unlock()
	n := s.recorded.Add(1)
	if obs.Enabled() {
		obs.Event("runstate.recorded", obs.F("value", n), obs.F("key", key))
		s.emitStatus()
	}
}

func (s *Store) fail(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
}

// failLocked records the first store error; callers hold s.mu.
func (s *Store) failLocked(err error) {
	if s.err == nil {
		s.err = err
		obs.Event("runstate.error", obs.F("err", err.Error()))
	}
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Replayed:              s.replayed.Load(),
		Recorded:              s.recorded.Load(),
		Hits:                  s.hits.Load(),
		SkippedPartial:        s.skippedPartial.Load(),
		Conflicts:             s.conflicts.Load(),
		DeterminismViolations: s.determinism.Load(),
	}
}

// Units returns the number of completed units currently known.
func (s *Store) Units() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.units)
}

// Keys returns the sorted unit keys that start with prefix ("" = all).
// Long-lived services use this to enumerate their journaled records on
// restart; one-shot sweeps never need it.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.units))
	for k := range s.units {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// emitStatus mirrors the resumable state into the obs stream; the
// telemetry registry retains the latest one for /runs.
func (s *Store) emitStatus() {
	s.mu.Lock()
	units := len(s.units)
	s.mu.Unlock()
	obs.Event("runstate.status",
		obs.F("dir", s.dir),
		obs.F("worker", s.workerID),
		obs.F("units", units),
		obs.F("replayed", s.replayed.Load()),
		obs.F("recorded", s.recorded.Load()),
		obs.F("hits", s.hits.Load()),
		obs.F("skipped_partial", s.skippedPartial.Load()),
		obs.F("conflicts", s.conflicts.Load()),
		obs.F("determinism_violations", s.determinism.Load()))
}

// Snapshot compacts the store: all known units are written to
// snapshot.json via tmp-file + fsync + atomic rename, and on success the
// journal is truncated (its content is now redundant). Crash-safe at
// every point: until the rename lands, the old snapshot + journal pair
// is intact.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shared || s.journal == nil {
		// Shared directories stay append-only: a worker compacting "its"
		// view would truncate nothing it owns exclusively and could race
		// every sibling's replay. Journals are merged at read time instead.
		// A loaded or closed store has no journal and writes nothing.
		return nil
	}
	units := make(map[string]json.RawMessage, len(s.units))
	for k, v := range s.units {
		units[k] = v.data
	}
	snap := snapshotFile{Schema: SchemaVersion, Units: units}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("runstate: encoding snapshot: %w", err)
	}
	if err := WriteFileAtomic(s.dir, s.snapshotPath(), append(data, '\n'), os.Rename); err != nil {
		return fmt.Errorf("runstate: %w", err)
	}
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("runstate: truncating journal after snapshot: %w", err)
	}
	if _, err := s.journal.Seek(0, 0); err != nil {
		return fmt.Errorf("runstate: rewinding journal: %w", err)
	}
	return nil
}

// Close snapshots, releases the journal, emits a final status, and
// returns the first error the store swallowed while running.
func (s *Store) Close() error {
	err := s.Snapshot()
	s.mu.Lock()
	if s.journal != nil {
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.journal = nil
	}
	if s.err != nil && err == nil {
		err = s.err
	}
	s.mu.Unlock()
	if obs.Enabled() {
		s.emitStatus()
	}
	return err
}

// WriteFileAtomic is the module's one whole-file publish. It writes data
// to a temp file in tmpDir (on path's file system), fsyncs and closes it,
// then puts it at path with publish and removes the temp name. os.Rename
// replaces a file already at path; os.Link refuses one with an error
// matching fs.ErrExist, so the first publisher wins (the O_EXCL rule)
// and the file it published is left as it was. After a SIGKILL at any
// point a reader sees at path the old file, the new one or none, never
// a torn one. A call that returns leaves no temp file; a killed one can
// leave one in tmpDir (path's base name, ".tmp" and a random suffix),
// which whatever lists tmpDir must ignore. Power loss is not covered: no directory is fsync'd. Errors name path
// but carry no package prefix; each caller adds its own.
func WriteFileAtomic(tmpDir, path string, data []byte, publish func(oldname, newname string) error) error {
	tmp, err := os.CreateTemp(tmpDir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("creating temp file for %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("fsync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	if err := publish(tmp.Name(), path); err != nil {
		return fmt.Errorf("publishing %s: %w", path, err)
	}
	return nil
}

// ---- process-wide install point (mirrors obs.SetSink) ----

var global atomic.Pointer[Store]

// SetStore installs (or, with nil, uninstalls) the process-wide store.
func SetStore(s *Store) {
	if s == nil {
		global.Store(nil)
		return
	}
	global.Store(s)
}

// Current returns the installed store, or nil when durable execution is
// off.
func Current() *Store { return global.Load() }

// Enabled reports whether a store is installed; the disabled path is one
// atomic load.
func Enabled() bool { return global.Load() != nil }

// Lookup consults the installed store; false (cheaply) when none is.
func Lookup(key string, out any) bool {
	s := global.Load()
	if s == nil {
		return false
	}
	return s.Lookup(key, out)
}

// Record journals a unit on the installed store; no-op when none is.
func Record(key string, payload any) {
	if s := global.Load(); s != nil {
		s.Record(key, payload)
	}
}

// RecordCtx journals a unit under the fencing token carried by the
// context (WithToken). Instrumented loops call this form so a unit
// computed inside a distributed lease (or a speculative duplicate) is
// journaled under the token that authorized it; outside distributed
// execution the token is 0 and the behavior is exactly Record.
func RecordCtx(ctx context.Context, key string, payload any) {
	if s := global.Load(); s != nil {
		s.RecordToken(key, payload, TokenFrom(ctx))
	}
}

// Refresh ingests sibling workers' new journal records on the installed
// store (shared mode; no-op otherwise or when no store is installed).
func Refresh() error {
	if s := global.Load(); s != nil {
		return s.Refresh()
	}
	return nil
}

// KeyHash renders any JSON-encodable value as a short stable hash — the
// building block of unit keys ("the sweep config, whatever its fields").
func KeyHash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// An unencodable key component falls back to a constant that can
		// never collide with a real hash, disabling caching for the unit.
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}

// ---- unit scope through context ----

type scopeKey struct{}

// WithScope attaches a unit-key scope (e.g. the system + mapping
// fingerprint of a sweep) to the context, so deep loops can build
// self-describing keys without new parameters on every call path.
func WithScope(ctx context.Context, scope string) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, scopeKey{}, scope)
}

// ScopeFrom returns the attached scope, or "" when none (in which case
// checkpointing of scope-keyed units is skipped — an unidentifiable unit
// must never be cached).
func ScopeFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if s, ok := ctx.Value(scopeKey{}).(string); ok {
		return s
	}
	return ""
}

type tokenKey struct{}

// WithToken attaches a fencing token to the context. The distributed
// executor wraps each leased (or speculative) unit's context with its
// token, so every RecordCtx inside the unit — however deep — journals
// under the token that authorized the work.
func WithToken(ctx context.Context, token uint64) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, tokenKey{}, token)
}

// TokenFrom returns the attached fencing token (0 when none — solo
// execution).
func TokenFrom(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	if t, ok := ctx.Value(tokenKey{}).(uint64); ok {
		return t
	}
	return 0
}
