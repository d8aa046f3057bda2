package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"commsched/internal/obs"
	"commsched/internal/runstate"
)

// Mode classifies how a lease (or execution) was obtained; it labels the
// lease.unit spans and feeds the steal/reclaim counters.
type Mode string

const (
	// ModeOwned is a fresh claim of a unit in the worker's preferred
	// partition.
	ModeOwned Mode = "owned"
	// ModeSteal is a fresh claim of a unit preferred by another live
	// worker (work stealing: the thief ran out of its own units).
	ModeSteal Mode = "steal"
	// ModeReclaim is a takeover of an expired (or torn) lease — the
	// previous holder crashed or stalled past the TTL.
	ModeReclaim Mode = "reclaim"
	// ModeReplay is a local execution of a unit another worker already
	// completed (cheap: the unit's results replay from the shared store).
	ModeReplay Mode = "replay"
	// ModeSpeculate is a duplicate execution of a straggling unit, run
	// without holding its lease under a fresh (higher) fencing token.
	ModeSpeculate Mode = "speculate"
)

// ErrHeld reports that a unit's lease is currently held (and not
// expired) by another worker.
var ErrHeld = fmt.Errorf("lease: unit is held by another worker")

// ErrDone reports that the unit already has a done marker: it must be
// replayed from the shared store, never run again.
var ErrDone = errors.New("lease: unit is already done")

// ErrLost reports that this worker's lease was taken over (a higher
// fencing token now owns the unit) — the worker was presumed dead and
// must stop treating the unit as its own.
var ErrLost = fmt.Errorf("lease: lease lost to a higher fencing token")

// Lease is one held claim on a unit.
type Lease struct {
	// Unit is the claimed unit ID.
	Unit string
	// Token is the fencing token this claim was allocated.
	Token uint64
	// Expires is the current deadline (advanced by Renew).
	Expires time.Time
	// Mode records how the claim was obtained (owned/steal/reclaim).
	Mode Mode
}

// Stats are the manager's lifetime counters, one field per protocol
// event worth alerting on.
type Stats struct {
	// Acquired counts successful fresh claims (owned + stolen).
	Acquired int64 `json:"acquired"`
	// Stolen counts fresh claims of units preferred by another live
	// worker.
	Stolen int64 `json:"stolen"`
	// Reclaimed counts takeovers of expired leases.
	Reclaimed int64 `json:"reclaimed"`
	// Lost counts this worker's leases taken over by someone else.
	Lost int64 `json:"lost"`
	// Conflicts counts lost acquisition/takeover races (another worker
	// won the O_EXCL create or the rename read-back).
	Conflicts int64 `json:"conflicts"`
	// Expired counts leases observed past their deadline (candidates for
	// reclaim).
	Expired int64 `json:"expired"`
	// Renewals counts successful heartbeat renewals.
	Renewals int64 `json:"renewals"`
}

// Manager coordinates one worker's leases under <base>/lease. All
// methods are safe for concurrent use by the pool's local workers.
type Manager struct {
	dir   string // <base>/lease
	owner string
	ttl   time.Duration

	// now is the clock, swappable in tests to force expiries.
	now func() time.Time

	tokenHint atomic.Uint64

	statsMu sync.Mutex
	stats   Stats
	// reclaimLatencies records, for every takeover this worker performed,
	// how long past its deadline the dead lease sat before the reclaim
	// landed — the "how fast does the cluster heal" metric.
	reclaimLatencies []time.Duration
}

// Open prepares the lease directory under base and registers the worker
// in the registry. TTL must comfortably exceed the heartbeat interval
// the pool will use (the pool renews at TTL/3).
func Open(base, owner string, ttl time.Duration) (*Manager, error) {
	if owner == "" {
		return nil, fmt.Errorf("lease: empty worker ID")
	}
	if strings.ContainsAny(owner, "/\x00") {
		return nil, fmt.Errorf("lease: worker ID %q must not contain '/'", owner)
	}
	if ttl <= 0 {
		ttl = 5 * time.Second
	}
	dir := filepath.Join(base, "lease")
	for _, sub := range []string{"units", "tokens", "done", "workers", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("lease: creating %s: %w", sub, err)
		}
	}
	m := &Manager{dir: dir, owner: owner, ttl: ttl, now: time.Now}
	m.tokenHint.Store(m.scanMaxToken())
	if err := m.Heartbeat(); err != nil {
		return nil, err
	}
	return m, nil
}

// Owner returns the worker ID this manager claims leases as.
func (m *Manager) Owner() string { return m.owner }

// TTL returns the lease time-to-live.
func (m *Manager) TTL() time.Duration { return m.ttl }

func (m *Manager) unitPath(unit string) string {
	return filepath.Join(m.dir, "units", sanitize(unit)+".lease")
}

func (m *Manager) donePath(unit string) string {
	return filepath.Join(m.dir, "done", sanitize(unit)+".done")
}

// sanitize makes a unit ID filesystem-safe: path separators (and the
// few other bytes that are risky in file names) are percent-escaped.
// Distinct unit IDs stay distinct.
func sanitize(unit string) string {
	var b strings.Builder
	for i := 0; i < len(unit); i++ {
		c := unit[i]
		switch {
		case c == '/' || c == '\\' || c == '%' || c == 0 || c == '\n':
			fmt.Fprintf(&b, "%%%02x", c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// ---- fencing tokens ----

// AllocToken allocates the next globally unique, monotonically
// increasing fencing token by creating tokens/t<n> with O_EXCL. Lost
// races bump n and retry, so concurrent allocations across workers never
// collide and never go backwards. The token file is neither fsync'd nor
// published whole: only its name counts (its content, the owner, is for
// people), and the name exists from the O_EXCL create on.
func (m *Manager) AllocToken() (uint64, error) {
	for {
		next := m.tokenHint.Load() + 1
		path := filepath.Join(m.dir, "tokens", fmt.Sprintf("t%020d", next))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			_, werr := f.WriteString(m.owner + "\n")
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return 0, fmt.Errorf("lease: writing token file: %w", werr)
			}
			m.raiseHint(next)
			return next, nil
		}
		if !os.IsExist(err) {
			return 0, fmt.Errorf("lease: allocating token %d: %w", next, err)
		}
		// Someone else holds this number; our view is stale. Re-scan so a
		// long-asleep worker jumps straight past the contention instead of
		// walking it one number at a time.
		if scanned := m.scanMaxToken(); scanned > next {
			m.raiseHint(scanned)
		} else {
			m.raiseHint(next)
		}
	}
}

func (m *Manager) raiseHint(v uint64) {
	for {
		cur := m.tokenHint.Load()
		if cur >= v || m.tokenHint.CompareAndSwap(cur, v) {
			return
		}
	}
}

// scanMaxToken returns the highest allocated token on disk (0 when none).
func (m *Manager) scanMaxToken() uint64 {
	entries, err := os.ReadDir(filepath.Join(m.dir, "tokens"))
	if err != nil {
		return 0
	}
	var max uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "t") {
			continue
		}
		if v, err := strconv.ParseUint(strings.TrimLeft(name[1:], "0"), 10, 64); err == nil && v > max {
			max = v
		} else if name == "t"+strings.Repeat("0", 20) {
			continue
		}
	}
	return max
}

// ---- lease lifecycle ----

// Holder returns the unit's current lease record. held reports whether a
// parsable, unexpired lease exists; expired is true when a lease file
// exists but is past its deadline or torn (safe to reclaim).
func (m *Manager) Holder(unit string) (rec Record, held, expired bool) {
	data, err := os.ReadFile(m.unitPath(unit))
	if err != nil {
		return Record{}, false, false
	}
	rec, perr := Parse(data)
	if perr != nil {
		// An unparsable lease (an alien or damaged file; publish never
		// exposes a partial record). There is no deadline to honor, so it
		// is reclaimable now.
		return Record{}, false, true
	}
	if m.now().UnixNano() >= rec.Expires {
		m.count(func(s *Stats) { s.Expired++ })
		return rec, false, true
	}
	return rec, true, false
}

// Acquire claims the unit: a fresh claim is linked into place when no
// lease file exists, an expired or torn lease is taken over by rename.
// stolen tags fresh claims the pool considers outside this worker's
// preferred partition (accounting only). It returns ErrHeld when the
// unit is validly leased by someone else or when a concurrent claim wins
// the race, and ErrDone when the unit has a done marker, whether seen
// before the claim or after winning it.
func (m *Manager) Acquire(unit string, stolen bool) (*Lease, error) {
	if _, done := m.Done(unit); done {
		return nil, ErrDone
	}
	prev, held, expired := m.Holder(unit)
	if held {
		return nil, ErrHeld
	}
	tok, err := m.AllocToken()
	if err != nil {
		return nil, err
	}
	now := m.now()
	rec := Record{Token: tok, Owner: m.owner, Unit: unit, Expires: now.Add(m.ttl).UnixNano()}
	if !expired {
		// Fresh unit: the link decides the winner outright, like O_EXCL.
		if err := m.publish(m.unitPath(unit), rec, os.Link); errors.Is(err, fs.ErrExist) {
			m.count(func(s *Stats) { s.Conflicts++ })
			return nil, ErrHeld
		} else if err != nil {
			return nil, err
		}
	} else if err := m.publish(m.unitPath(unit), rec, os.Rename); err != nil {
		// Takeover of an expired/torn lease: two reclaimers can rename back
		// to back, so the read-back below decides who holds the unit now.
		return nil, err
	}
	// Read-back verification closes every race: a concurrent takeover
	// that renamed after us leaves a different token in the file, and the
	// holder of the file's token is the holder of the unit.
	cur, curHeld, _ := m.Holder(unit)
	if !curHeld || cur.Token != tok {
		m.count(func(s *Stats) { s.Conflicts++ })
		return nil, ErrHeld
	}
	// A holder marks its unit done before it releases the lease, so the
	// marker of a unit completed and released since the check above is
	// visible now that the claim has won: hand the unit back.
	if _, done := m.Done(unit); done {
		m.Release(&Lease{Unit: unit, Token: tok})
		return nil, ErrDone
	}
	mode := ModeOwned
	switch {
	case expired:
		mode = ModeReclaim
		lat := now.Sub(time.Unix(0, prev.Expires))
		if prev.Expires == 0 { // torn lease: no deadline to measure from
			lat = 0
		}
		m.count(func(s *Stats) {
			s.Reclaimed++
			m.reclaimLatencies = append(m.reclaimLatencies, lat)
		})
		if obs.Enabled() {
			obs.Event("lease.reclaim",
				obs.F("unit", unit), obs.F("token", tok),
				obs.F("prev_owner", prev.Owner), obs.F("prev_token", prev.Token),
				obs.F("latency_ms", float64(lat)/float64(time.Millisecond)))
		}
	case stolen:
		mode = ModeSteal
		m.count(func(s *Stats) { s.Acquired++; s.Stolen++ })
	default:
		m.count(func(s *Stats) { s.Acquired++ })
	}
	return &Lease{Unit: unit, Token: tok, Expires: time.Unix(0, rec.Expires), Mode: mode}, nil
}

// Renew extends a held lease by one TTL. It returns ErrLost when the
// lease file no longer carries this lease's token — the worker was
// presumed dead and taken over; the caller must fence itself off (stop
// the unit, discard the claim).
func (m *Manager) Renew(l *Lease) error {
	cur, held, _ := m.Holder(l.Unit)
	if !held || cur.Token != l.Token {
		m.count(func(s *Stats) { s.Lost++ })
		return ErrLost
	}
	rec := cur
	rec.Expires = m.now().Add(m.ttl).UnixNano()
	if err := m.publish(m.unitPath(l.Unit), rec, os.Rename); err != nil {
		return err
	}
	// The rename could have raced a takeover; only the read-back tells.
	cur, held, _ = m.Holder(l.Unit)
	if !held || cur.Token != l.Token {
		m.count(func(s *Stats) { s.Lost++ })
		return ErrLost
	}
	l.Expires = time.Unix(0, rec.Expires)
	m.count(func(s *Stats) { s.Renewals++ })
	return nil
}

// Release drops a held lease. Releasing a lease that was already taken
// over is a no-op (the file now belongs to the successor).
func (m *Manager) Release(l *Lease) {
	cur, _, _ := m.Holder(l.Unit)
	if cur.Token != l.Token {
		return
	}
	// Benign race: between the check and the remove a takeover could slip
	// in, deleting the successor's lease file. The unit then merely looks
	// free — its done marker and fenced journal still guarantee
	// exactly-once results, so the cost is a wasted duplicate execution.
	os.Remove(m.unitPath(l.Unit))
}

// ---- completion markers ----

// MarkDone publishes the unit's completion under the given token. The
// marker is linked into place whole, so the first valid completion wins
// and every later duplicate (speculation, zombie) learns it lost. dur is
// the execution wall time; unitErr, when non-nil, marks a deterministic
// permanent failure so sibling workers stop waiting for a success that
// cannot come.
func (m *Manager) MarkDone(unit string, token uint64, dur time.Duration, unitErr error) (won bool, err error) {
	rec := Record{Token: token, Owner: m.owner, Unit: unit,
		Expires: m.now().UnixNano(), Dur: int64(dur)}
	if unitErr != nil {
		rec.Err = unitErr.Error()
	}
	if err := m.publish(m.donePath(unit), rec, os.Link); errors.Is(err, fs.ErrExist) {
		return false, nil
	} else if err != nil {
		return false, err
	}
	return true, nil
}

// Done reports whether the unit has a completion marker, returning it.
// An unparsable marker (an alien or damaged file) reads as not-done.
func (m *Manager) Done(unit string) (Record, bool) {
	data, err := os.ReadFile(m.donePath(unit))
	if err != nil {
		return Record{}, false
	}
	rec, perr := Parse(data)
	if perr != nil {
		// Remove it so a future completion can link a fresh one; the
		// result journal is the source of truth anyway.
		os.Remove(m.donePath(unit))
		return Record{}, false
	}
	return rec, true
}

// ---- worker registry ----

// workerInfo is the registry entry workers heartbeat into
// lease/workers/<id>.json; liveness is judged by file mtime.
type workerInfo struct {
	PID     int   `json:"pid"`
	Started int64 `json:"started_unix_ns"`
}

// Heartbeat refreshes this worker's registry entry; the pool calls it on
// its lease-renewal cadence. The entry is renamed into place without an
// fsync: LiveWorkers reads only its name and mtime, and the live set only
// orders each worker's claims, so a lost beat can cost a claim race but
// never a result.
func (m *Manager) Heartbeat() error {
	path := filepath.Join(m.dir, "workers", m.owner+".json")
	data, err := json.Marshal(workerInfo{PID: os.Getpid(), Started: m.now().UnixNano()})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("lease: worker heartbeat: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("lease: worker heartbeat: %w", err)
	}
	return nil
}

// LiveWorkers returns the sorted IDs of workers whose registry entry was
// refreshed within the window. The caller's own ID is always included
// (its own heartbeat might be due).
func (m *Manager) LiveWorkers(window time.Duration) []string {
	cutoff := m.now().Add(-window)
	entries, err := os.ReadDir(filepath.Join(m.dir, "workers"))
	live := map[string]bool{m.owner: true}
	if err == nil {
		for _, e := range entries {
			name, ok := strings.CutSuffix(e.Name(), ".json")
			if !ok {
				continue
			}
			if info, err := e.Info(); err == nil && info.ModTime().After(cutoff) {
				live[name] = true
			}
		}
	}
	out := make([]string, 0, len(live))
	for id := range live {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ---- helpers ----

// publish puts rec at path whole with runstate.WriteFileAtomic, by link
// (first wins, fs.ErrExist otherwise) or by rename (replaces). Its temp
// files live in tmp/, outside units/ and done/, so nothing that lists
// those ever sees one.
func (m *Manager) publish(path string, rec Record, place func(oldname, newname string) error) error {
	if err := runstate.WriteFileAtomic(filepath.Join(m.dir, "tmp"), path, []byte(rec.String()), place); err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	return nil
}

func (m *Manager) count(fn func(*Stats)) {
	m.statsMu.Lock()
	fn(&m.stats)
	m.statsMu.Unlock()
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return m.stats
}

// ReclaimLatencies returns the takeover latencies this worker measured:
// for each reclaim, how long past its deadline the dead lease sat before
// this worker took it over.
func (m *Manager) ReclaimLatencies() []time.Duration {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	out := make([]time.Duration, len(m.reclaimLatencies))
	copy(out, m.reclaimLatencies)
	return out
}
