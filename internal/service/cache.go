package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"commsched/internal/core"
	"commsched/internal/obs"
	"commsched/internal/topology"
)

// cacheBudget bounds the accounted bytes of the characterized systems
// /evaluate keeps: 31 systems of 128 switches and degree 3.
const cacheBudget = 32 << 20

// An entry is accounted for what it retains: 64 B per switch pair (the
// distance table and its squares), 48 B per link (link list, adjacency),
// the client-chosen network name (up to MaxNetworkBytes) and 4 KiB fixed.
// Measured on rings, degree 3–6 irregular networks and full meshes of
// 3–128 switches and on names up to 1 MiB (Go 1.24), an entry retains
// 0.29–1.08× its accounted size: a full cache holds ≤ ~1.1× the budget.
const (
	bytesPerPair = 64
	bytesPerLink = 48
	entryBytes   = 4 << 10
)

// entrySize is the accounted size of net's characterized system.
func entrySize(net *topology.Network) int64 {
	n := int64(net.Switches())
	return bytesPerPair*n*n + bytesPerLink*int64(net.NumLinks()) + int64(len(net.Name())) + entryBytes
}

// sysEntry is one topology's characterization. ready closes once sys and
// err are set; until then the entry is in flight and later callers wait
// on it instead of characterizing again.
type sysEntry struct {
	sha   string
	ready chan struct{}
	sys   *core.System
	err   error
	size  int64
	elem  *list.Element // position in the LRU; nil while in flight
}

// sysCache is a bounded, single-flight LRU of characterized systems keyed
// by topology SHA. The first caller for a SHA characterizes on its own
// goroutine; concurrent callers for the same SHA share that result. A
// core.System is read-only once built, so every caller may use it at
// once. Failed characterizations are not kept, and in-flight entries are
// never evicted (they join the LRU only once published).
type sysCache struct {
	budget int64
	// build characterizes a network; tests substitute it.
	build func(*topology.Network) (*core.System, error)

	mu        sync.Mutex
	entries   map[string]*sysEntry
	lru       list.List // of *sysEntry, most recently used at the front
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

func newSysCache(budget int64) *sysCache {
	return &sysCache{budget: budget, build: newSystemSafe, entries: make(map[string]*sysEntry)}
}

// get returns the characterized system for net, whose topology SHA is
// sha. A caller that finds the system in flight waits for it or for ctx.
func (c *sysCache) get(ctx context.Context, sha string, net *topology.Network) (*core.System, error) {
	c.mu.Lock()
	if e, ok := c.entries[sha]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.hits++
		hits := c.hits
		c.mu.Unlock()
		if obs.Enabled() {
			obs.Event("service.eval_cache_hits", obs.F("value", hits))
		}
		select {
		case <-e.ready:
			return e.sys, e.err
		case <-ctx.Done():
			return nil, fmt.Errorf("service: evaluate cancelled: %w", ctx.Err())
		}
	}
	e := &sysEntry{sha: sha, ready: make(chan struct{})}
	c.entries[sha] = e
	c.misses++
	c.mu.Unlock()

	e.sys, e.err = c.build(net)

	c.mu.Lock()
	if e.err != nil {
		delete(c.entries, sha) // the next call retries
	} else {
		e.size = entrySize(net)
		e.elem = c.lru.PushFront(e)
		c.bytes += e.size
		for c.bytes > c.budget {
			old := c.lru.Remove(c.lru.Back()).(*sysEntry)
			delete(c.entries, old.sha)
			c.bytes -= old.size
			c.evictions++
		}
	}
	close(e.ready)
	misses, evictions, bytes := c.misses, c.evictions, c.bytes
	c.mu.Unlock()
	if obs.Enabled() {
		obs.Event("service.eval_cache_misses", obs.F("value", misses))
		obs.Event("service.eval_cache_evictions", obs.F("value", evictions))
		obs.Event("service.eval_cache_bytes", obs.F("value", bytes))
	}
	return e.sys, e.err
}

// stats returns (lookups that found an entry, characterizations run).
func (c *sysCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
