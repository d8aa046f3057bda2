package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"

	"commsched/internal/obs"
)

// Options are the telemetry-related flags shared by the commands.
type Options struct {
	// Serve starts the live HTTP endpoint on this address (":0" picks a
	// free port); empty disables it.
	Serve string
	// Trace records a Chrome trace-event JSON file at this path.
	Trace string
	// Metrics writes the JSONL observability trace to this path.
	Metrics string
	// CPUProfile / MemProfile write pprof profiles.
	CPUProfile, MemProfile string
	// Banner, when non-nil, receives the "serving on ..." line so users
	// of -serve :0 learn the bound port (Flags sets os.Stderr).
	Banner io.Writer
}

// Flags registers -metrics, -cpuprofile, -memprofile, -serve and -trace
// on the default FlagSet and returns the destination Options, with the
// serve banner going to standard error.
func Flags() *Options {
	opts := &Options{Banner: os.Stderr}
	flag.StringVar(&opts.Metrics, "metrics", "", "write an observability trace (JSON lines) to this file")
	flag.StringVar(&opts.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&opts.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&opts.Serve, "serve", "", "serve live telemetry (/metrics /events /runs /healthz /debug/pprof) on this address while running, e.g. :8080 or :0")
	flag.StringVar(&opts.Trace, "trace", "", "record a Chrome trace-event JSON file (view in Perfetto / chrome://tracing)")
	return opts
}

// Service is the running telemetry of one command invocation.
type Service struct {
	// Addr is the bound HTTP address ("" when -serve was off).
	Addr string
	// Registry, Hub, and Traces are non-nil when the server is running.
	Registry *Registry
	Hub      *Hub
	Traces   *Traces

	server  *Server
	trace   *Trace
	jsonl   *obs.JSONL
	stopCPU func() error
	memPath string
}

// Start wires every requested output into one obs fan-out sink and
// installs it process-wide. With all options empty it installs nothing
// and the instrumented code keeps its one-atomic-load disabled path. The
// returned service must be Closed; Close reports the first flush, write,
// or profile error instead of dropping records silently on exit.
func Start(opts Options) (*Service, error) {
	svc := &Service{memPath: opts.MemProfile}
	var sinks obs.Fanout
	fail := func(err error) (*Service, error) {
		svc.Close() //nolint:errcheck // reporting the original error
		return nil, err
	}
	if opts.Metrics != "" {
		j, err := obs.OpenJSONL(opts.Metrics)
		if err != nil {
			return fail(err)
		}
		svc.jsonl = j
		sinks = append(sinks, j)
	}
	if opts.Trace != "" {
		tr, err := OpenTrace(opts.Trace)
		if err != nil {
			return fail(err)
		}
		svc.trace = tr
		sinks = append(sinks, tr)
	}
	if opts.Serve != "" {
		svc.Registry = NewRegistry()
		svc.Hub = NewHub()
		svc.Traces = NewTraces(0, 0)
		svc.server = NewServer(svc.Registry, svc.Hub)
		svc.server.Traces = svc.Traces
		addr, err := svc.server.Start(opts.Serve)
		if err != nil {
			return fail(err)
		}
		svc.Addr = addr
		if opts.Banner != nil {
			fmt.Fprintf(opts.Banner, "telemetry: serving on http://%s (/metrics /events /runs /trace/{id} /healthz /debug/pprof)\n", addr)
		}
		sinks = append(sinks, svc.Registry, svc.Hub, svc.Traces)
	}
	if opts.CPUProfile != "" {
		stop, err := obs.StartCPUProfile(opts.CPUProfile)
		if err != nil {
			return fail(err)
		}
		svc.stopCPU = stop
	}
	switch len(sinks) {
	case 0:
		// Nothing installed: emission helpers stay on the disabled path.
	case 1:
		obs.SetSink(sinks[0])
	default:
		obs.SetSink(sinks)
	}
	return svc, nil
}

// Close uninstalls the sink, stops the server, finalizes the trace and
// JSONL files, and writes the requested profiles. The first error wins.
func (s *Service) Close() error {
	obs.SetSink(nil)
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.stopCPU != nil {
		keep(s.stopCPU())
	}
	if s.memPath != "" {
		keep(obs.WriteHeapProfile(s.memPath))
	}
	if s.server != nil {
		keep(s.server.Close())
	}
	if s.trace != nil {
		keep(s.trace.Close())
	}
	if s.jsonl != nil {
		keep(s.jsonl.Close())
	}
	return first
}
