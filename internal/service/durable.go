package service

import (
	"fmt"
	"path/filepath"

	"commsched/internal/runstate"
)

// storeSchema is folded into the durable store's identity; bump it when
// the journaled Job record changes incompatibly, so a daemon never
// misreads a state directory written by an older build (it refuses with
// runstate.ErrIdentityMismatch instead).
const storeSchema = 1

// storeIdentity pins a daemon state directory to this service schema.
func storeIdentity() runstate.Identity {
	return runstate.Identity{
		Command: "commschedd",
		Seeds:   map[string]int64{"store_schema": storeSchema},
	}
}

// DurableStore is the JobStore that survives SIGKILL: every Create and
// Update appends the full job record to a runstate write-ahead journal
// and fsyncs before returning, keyed by job ID (later records for the
// same job overwrite earlier ones on replay). A restarted daemon reloads
// the latest record of every job; the service then re-enqueues the
// queued ones and re-runs the interrupted ones from their per-job
// checkpoints.
type DurableStore struct {
	mem *MemStore
	st  *runstate.Store
	dir string
}

// jobsDir / ckptRoot are the layout of a daemon state directory.
func jobsDir(state string) string { return filepath.Join(state, "jobs") }

// CkptRoot returns where per-job checkpoint directories live under a
// daemon state directory.
func CkptRoot(state string) string { return filepath.Join(state, "ckpt") }

// OpenDurableStore opens (or creates) the job journal under the daemon
// state directory. A directory written by an incompatible schema is
// refused with an error wrapping runstate.ErrIdentityMismatch.
func OpenDurableStore(state string) (*DurableStore, error) {
	if state == "" {
		return nil, fmt.Errorf("service: empty state directory")
	}
	st, err := runstate.Open(jobsDir(state), storeIdentity())
	if err != nil {
		return nil, err
	}
	d := &DurableStore{mem: NewMemStore(), st: st, dir: state}
	if err := replayJobs(st, d.mem); err != nil {
		return nil, err
	}
	return d, nil
}

// LoadJobs returns the jobs journaled under a daemon state directory, in
// Seq order, without writing to it (runstate.Load), so it can read a
// live daemon's directory; a record still being appended is not read.
// A directory that holds no job store is an error.
func LoadJobs(state string) ([]Job, error) {
	st, err := runstate.Load(jobsDir(state), storeIdentity())
	if err != nil {
		return nil, fmt.Errorf("service: loading jobs of %s: %w", state, err)
	}
	mem := NewMemStore()
	if err := replayJobs(st, mem); err != nil {
		return nil, err
	}
	return mem.List(), nil
}

// replayJobs creates every job record of st in mem.
func replayJobs(st *runstate.Store, mem *MemStore) error {
	for _, key := range st.Keys("job/") {
		var j Job
		if !st.Lookup(key, &j) || j.ID == "" {
			// A record that no longer decodes is dropped rather than
			// resurrected half-read; Keys/Lookup already skipped torn
			// journal tails.
			continue
		}
		if err := mem.Create(&j); err != nil {
			return fmt.Errorf("service: replaying %s: %w", key, err)
		}
	}
	return nil
}

// Dir returns the daemon state directory this store persists under.
func (d *DurableStore) Dir() string { return d.dir }

func (d *DurableStore) record(j *Job) {
	d.st.Record("job/"+j.ID, j)
}

// Create implements JobStore: the record is journaled (and fsync'd)
// before the in-memory view admits it, so an acknowledged job can never
// be lost to a crash.
func (d *DurableStore) Create(j *Job) error {
	if err := d.mem.Create(j); err != nil {
		return err
	}
	d.record(j)
	return nil
}

// Update implements JobStore.
func (d *DurableStore) Update(j *Job) error {
	if err := d.mem.Update(j); err != nil {
		return err
	}
	d.record(j)
	return nil
}

// Get implements JobStore.
func (d *DurableStore) Get(id string) (Job, bool) { return d.mem.Get(id) }

// List implements JobStore.
func (d *DurableStore) List() []Job { return d.mem.List() }

// MaxSeq implements JobStore.
func (d *DurableStore) MaxSeq() int64 { return d.mem.MaxSeq() }

// Stats exposes the underlying checkpoint counters (for /readyz).
func (d *DurableStore) Stats() runstate.Stats { return d.st.Stats() }

// Close snapshots and closes the journal, surfacing the first write
// error the store swallowed while the daemon was serving.
func (d *DurableStore) Close() error { return d.st.Close() }
