// Package service is the scheduling-as-a-service layer: a long-lived,
// multi-tenant daemon (cmd/commschedd) that accepts topology + workload
// submissions over HTTP/JSON, runs mapping searches and simulations as
// queued jobs through the core façade, and streams progress and results.
//
// Robustness is the package's headline, not an afterthought:
//
//   - admission control: a bounded job queue with backpressure (429 +
//     Retry-After), per-tenant token-bucket rate limits and concurrent-job
//     quotas, request-size validation in front of the panic-hardened
//     façade, and a heap watermark that sheds new work before memory
//     pressure kills in-flight jobs;
//   - durability: with a state directory every job transition is
//     journaled through internal/runstate before the client sees a 202,
//     so jobs survive SIGKILL — queued jobs re-enqueue and interrupted
//     jobs resume from their per-job checkpoints on restart;
//   - per-job execution policies: internal/par's per-attempt deadlines,
//     seeded-backoff retries, and error budget, with partial results
//     salvaged into the job status instead of discarded;
//   - graceful degradation: SIGTERM stops admission, lets running jobs
//     finish or park within a deadline, checkpoints, and exits 0.
package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"commsched/internal/topology"
)

// JobKind selects what a job computes.
type JobKind string

const (
	// KindSchedule runs the communication-aware scheduling technique and
	// returns the best partition with its quality coefficients.
	KindSchedule JobKind = "schedule"
	// KindSweep simulates a mapping across a load ladder and returns one
	// latency/traffic point per rate (the paper's S1…Sn curves).
	KindSweep JobKind = "sweep"
	// KindEvaluate computes F_G/D_G/Cc for a given assignment.
	KindEvaluate JobKind = "evaluate"
)

// JobState is the lifecycle of a job.
type JobState string

const (
	// StateQueued: admitted and journaled, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing it.
	StateRunning JobState = "running"
	// StateDone: finished; Result holds the payload.
	StateDone JobState = "done"
	// StateFailed: failed permanently (after per-unit retries).
	StateFailed JobState = "failed"
	// StateParked: interrupted by a drain deadline; its checkpoints are
	// retained and a restarted daemon resumes it.
	StateParked JobState = "parked"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// JobSpec is the client-supplied description of one job. Everything a
// result depends on lives here, so equal specs produce byte-identical
// results — the contract the durable resume path is tested against.
type JobSpec struct {
	// Tenant identifies the submitter for quotas and rate limits
	// (empty = the "anonymous" tenant).
	Tenant string `json:"tenant,omitempty"`
	// Kind selects the computation.
	Kind JobKind `json:"kind"`
	// Network is an explicit topology (the JSON form emitted by
	// topogen/topology.MarshalJSON); mutually exclusive with Generate.
	Network json.RawMessage `json:"network,omitempty"`
	// Generate instantiates one of the topology package's generators
	// instead of shipping an explicit link list.
	Generate *topology.Spec `json:"generate,omitempty"`
	// Clusters is the number of equal-size logical clusters
	// (schedule/sweep).
	Clusters int `json:"clusters,omitempty"`
	// Heuristic picks the searcher (default "tabu").
	Heuristic string `json:"heuristic,omitempty"`
	// Seed drives the search restarts and the simulation RNG.
	Seed int64 `json:"seed,omitempty"`
	// Rates is the injection-rate ladder of a sweep.
	Rates []float64 `json:"rates,omitempty"`
	// WarmupCycles / MeasureCycles / MessageFlits bound the simulation
	// effort of a sweep (zero = simulator defaults).
	WarmupCycles  int `json:"warmup_cycles,omitempty"`
	MeasureCycles int `json:"measure_cycles,omitempty"`
	MessageFlits  int `json:"message_flits,omitempty"`
	// Assign + M give an explicit mapping: the subject of an evaluate
	// job, or the mapping a sweep simulates (a sweep without Assign
	// schedules first and simulates the winner).
	Assign []int `json:"assign,omitempty"`
	M      int   `json:"m,omitempty"`
}

// Validation caps: the façade behind the service is panic-hardened, but
// admission still refuses work whose cost is out of any proportion to an
// online request — resource exhaustion is an availability bug too.
const (
	// MaxSwitches bounds the topology size (the distance table is an
	// O(n²) set of resistance solves) and every other count in a spec.
	MaxSwitches = 128
	// MaxRates bounds the sweep ladder length.
	MaxRates = 64
	// MaxMeasureCycles / MaxWarmupCycles bound one simulation run.
	MaxMeasureCycles = 200000
	MaxWarmupCycles  = 50000
	// MaxNetworkBytes bounds an explicit topology document.
	MaxNetworkBytes = 1 << 20
)

// Validate checks structural sanity and the service's size caps. It does
// not instantiate the topology; ResolveNetwork does (and re-validates
// through the topology package's own constructors).
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindSchedule, KindSweep, KindEvaluate:
	default:
		return fmt.Errorf("unknown job kind %q (want schedule, sweep, or evaluate)", s.Kind)
	}
	if (s.Network == nil) == (s.Generate == nil) {
		return fmt.Errorf("exactly one of network or generate must be set")
	}
	if len(s.Network) > MaxNetworkBytes {
		return fmt.Errorf("network document is %d bytes (cap %d)", len(s.Network), MaxNetworkBytes)
	}
	// Every count is bounded before anything is sized by it or multiplied:
	// the topology allocates per switch, the simulator per host and a
	// mapping per cluster (a cluster needs a switch).
	var head struct {
		Switches       int `json:"switches"`
		Ports          int `json:"ports"`
		HostsPerSwitch int `json:"hosts_per_switch"`
	}
	if s.Network != nil {
		if err := json.Unmarshal(s.Network, &head); err != nil {
			return fmt.Errorf("decoding network: %w", err)
		}
	}
	var g topology.Spec
	if s.Generate != nil {
		g = *s.Generate
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"clusters", s.Clusters}, {"m", s.M}, {"assign length", len(s.Assign)},
		{"network switches", head.Switches}, {"network ports", head.Ports}, {"network hosts_per_switch", head.HostsPerSwitch},
		{"generator switches", g.Switches}, {"degree", g.Degree}, {"rings", g.Rings}, {"ring_size", g.RingSize},
		{"bridges", g.Bridges}, {"rows", g.Rows}, {"cols", g.Cols}, {"dim", g.Dim},
	} {
		if c.n < 0 || c.n > MaxSwitches {
			return fmt.Errorf("%s %d out of range [0, %d]", c.name, c.n, MaxSwitches)
		}
	}
	if s.Generate != nil {
		n := g.Switches
		switch g.Kind {
		case "rings":
			n = g.Rings * g.RingSize
		case "mesh", "torus":
			n = g.Rows * g.Cols
		case "hypercube":
			n = 1 << uint(min(g.Dim, 31))
		}
		if n > MaxSwitches {
			return fmt.Errorf("generated topology has %d switches (cap %d)", n, MaxSwitches)
		}
	}
	if len(s.Rates) > MaxRates {
		return fmt.Errorf("%d sweep rates (cap %d)", len(s.Rates), MaxRates)
	}
	for _, r := range s.Rates {
		if r <= 0 || r > 4 {
			return fmt.Errorf("rate %v out of range (0, 4]", r)
		}
	}
	if s.MeasureCycles < 0 || s.MeasureCycles > MaxMeasureCycles {
		return fmt.Errorf("measure_cycles %d out of range [0, %d]", s.MeasureCycles, MaxMeasureCycles)
	}
	if s.WarmupCycles < 0 || s.WarmupCycles > MaxWarmupCycles {
		return fmt.Errorf("warmup_cycles %d out of range [0, %d]", s.WarmupCycles, MaxWarmupCycles)
	}
	if s.MessageFlits < 0 || s.MessageFlits > 1024 {
		return fmt.Errorf("message_flits %d out of range [0, 1024]", s.MessageFlits)
	}
	switch s.Kind {
	case KindEvaluate:
		if len(s.Assign) == 0 || s.M <= 0 {
			return fmt.Errorf("evaluate needs assign and m")
		}
	case KindSchedule:
		if s.Clusters <= 0 {
			return fmt.Errorf("schedule needs clusters > 0")
		}
	case KindSweep:
		if len(s.Rates) == 0 {
			return fmt.Errorf("sweep needs at least one rate")
		}
		if len(s.Assign) == 0 && s.Clusters <= 0 {
			return fmt.Errorf("sweep needs clusters > 0 (or an explicit assign)")
		}
	}
	return nil
}

// ResolveNetwork instantiates and fully validates the job's topology —
// every structural check of the topology package runs before the job is
// admitted, so nothing malformed ever reaches a worker.
func (s *JobSpec) ResolveNetwork() (*topology.Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Network != nil {
		return topology.UnmarshalNetworkJSON(s.Network)
	}
	return s.Generate.Build()
}

// TopologySHA is the SHA-256 of the resolved network's canonical JSON —
// the key of the /evaluate system cache and the identity a per-job
// checkpoint directory is pinned to.
func TopologySHA(net *topology.Network) (string, error) {
	data, err := net.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("service: hashing topology: %w", err)
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:]), nil
}

// Job is one submission's full record. The store journals it on every
// transition, so the latest journaled state is what a restarted daemon
// recovers.
type Job struct {
	// ID is unique across the daemon's lifetime including restarts.
	ID string `json:"id"`
	// Seq orders submissions (and seeds the ID).
	Seq int64 `json:"seq"`
	// Spec is the client's submission, verbatim.
	Spec JobSpec `json:"spec"`
	// TopologySHA identifies the resolved network.
	TopologySHA string `json:"topology_sha"`
	// State is the lifecycle position.
	State JobState `json:"state"`
	// Error is the permanent failure, when State == failed.
	Error string `json:"error,omitempty"`
	// Result is the canonical result document, when State == done. It
	// depends only on Spec — never on timing, worker, or resume history.
	Result json.RawMessage `json:"result,omitempty"`
	// Trace / Span are the causal identity of the submission: the trace ID
	// (from the client's traceparent, or minted at admission) and the
	// admission span's ID. They are journaled with the job, so a daemon
	// killed mid-run stitches the resumed work into the same trace. They
	// are status metadata — never part of Result.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// QueueWaitMs is how long the job waited between submission and worker
	// pickup, in milliseconds (set when it starts running).
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	// Attempts counts worker pickups (>1 after a resume).
	Attempts int `json:"attempts"`
	// Salvaged counts sweep points salvaged as incomplete under the
	// error budget.
	Salvaged int `json:"salvaged,omitempty"`
	// SubmittedAt / StartedAt / FinishedAt are wall-clock markers; they
	// are status metadata, deliberately outside Result.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// ScheduleResult is the result document of a schedule job.
type ScheduleResult struct {
	Assign      []int   `json:"assign"`
	M           int     `json:"m"`
	FG          float64 `json:"fg"`
	DG          float64 `json:"dg"`
	Cc          float64 `json:"cc"`
	Evaluations int     `json:"evaluations"`
	Iterations  int     `json:"iterations"`
}

// SweepResultPoint is one operating point of a sweep job's result.
type SweepResultPoint struct {
	Index           int     `json:"index"`
	Rate            float64 `json:"rate"`
	OfferedTraffic  float64 `json:"offered"`
	AcceptedTraffic float64 `json:"accepted"`
	AvgLatency      float64 `json:"latency"`
	AvgTotalLatency float64 `json:"latency_total"`
	Saturated       bool    `json:"saturated"`
	// Incomplete marks a point that failed permanently but was salvaged
	// under the job's error budget; its numbers are zero.
	Incomplete bool `json:"incomplete,omitempty"`
}

// SweepResult is the result document of a sweep job.
type SweepResult struct {
	Assign     []int              `json:"assign"`
	M          int                `json:"m"`
	Cc         float64            `json:"cc"`
	Points     []SweepResultPoint `json:"points"`
	Throughput float64            `json:"throughput"`
}

// EvaluateResult is the result document of an evaluate job (and of the
// synchronous /evaluate endpoint).
type EvaluateResult struct {
	FG float64 `json:"fg"`
	DG float64 `json:"dg"`
	Cc float64 `json:"cc"`
}
