# commsched — reproduction of Orduña et al., ICPP 2000.

GO ?= go

.PHONY: all build test race bench bench-gate figs figs-quick cover vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Benchmark gate: build the layer benchmarks of BASE (a git revision;
# the default HEAD compares a dirty tree with its last commit) in a git
# worktree and of the working tree, run both sides alternately on this
# machine, and fail when a median ns/op or allocs/op is significantly
# worse. The benchmark list, rounds and thresholds are constants in
# cmd/benchjson/gate.go; the record is written to .bench_gate/gate.json.
BASE ?= HEAD
bench-gate:
	$(GO) run ./cmd/benchjson gate $(BASE)

figs:
	$(GO) run ./cmd/paperfigs

figs-quick:
	$(GO) run ./cmd/paperfigs -quick

cover:
	$(GO) test -cover ./internal/...

clean:
	$(GO) clean ./...
