package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"commsched/internal/mapping"
)

// overflowingSpecs each declare a generator whose switch count overflows
// int when its factors are multiplied; building any of them would take
// the process down, so Validate must refuse them without building.
var overflowingSpecs = []string{
	`{"kind":"schedule","clusters":4,"generate":{"kind":"mesh","rows":4611686018427387908,"cols":4}}`,
	`{"kind":"schedule","clusters":4,"generate":{"kind":"torus","rows":4611686018427387908,"cols":4}}`,
	`{"kind":"schedule","clusters":4,"generate":{"kind":"rings","rings":4611686018427387908,"ring_size":4,"bridges":1}}`,
	`{"kind":"schedule","clusters":4,"generate":{"kind":"rings","rings":4294967296,"ring_size":4294967296,"bridges":1}}`,
}

// oversizedSpecs each declare a count that something allocates by after
// admission: clusters and m size a mapping, and ports and hosts per
// switch let an explicit network carry 2^40 hosts into a sweep's
// simulator. Each is a whole evaluate or schedule spec.
var oversizedSpecs = []string{
	`{"kind":"evaluate","generate":{"kind":"ring","switches":8},"assign":[0],"m":10000000000}`,
	`{"kind":"schedule","clusters":10000000000,"generate":{"kind":"ring","switches":8}}`,
	`{"kind":"evaluate","network":{"switches":2,"ports":1099511627780,"hosts_per_switch":1099511627776,"links":[{"A":0,"B":1}]},"assign":[0,1],"m":2}`,
	`{"kind":"evaluate","network":{"switches":2,"ports":1099511627780,"links":[{"A":0,"B":1}]},"assign":[0,1],"m":2}`,
	`{"kind":"evaluate","network":{"switches":2,"ports":8,"hosts_per_switch":1099511627776,"links":[]},"assign":[0,1],"m":2}`,
}

func TestValidateRejectsOverflowingGenerators(t *testing.T) {
	specs := append([]string{
		`{"kind":"schedule","clusters":4,"generate":{"kind":"hypercube","dim":-1}}`,
		`{"kind":"schedule","clusters":4,"network":{"switches":1099511627776,"links":[]}}`,
	}, overflowingSpecs...)
	for _, doc := range append(specs, oversizedSpecs...) {
		var spec JobSpec
		if err := json.Unmarshal([]byte(doc), &spec); err != nil {
			t.Fatalf("decoding %s: %v", doc, err)
		}
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate accepted %s", doc)
		}
	}
}

// FuzzJobSpec decodes request bodies through the HTTP handlers' decoder
// and runs admission's checks. A spec that passes Validate must resolve
// to an error or to a network within MaxSwitches, and its mapping, if
// any, to an error or to at most MaxSwitches clusters; never to a panic.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, ok := decodeSpec(httptest.NewRecorder(), httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
		if !ok || spec.Validate() != nil {
			return
		}
		net, err := spec.ResolveNetwork()
		if err == nil && net.Switches() > MaxSwitches {
			t.Fatalf("resolved %d switches (cap %d) from %s", net.Switches(), MaxSwitches, body)
		}
		if len(spec.Assign) > 0 {
			p, err := mapping.New(spec.Assign, spec.M)
			if err == nil && p.M() > MaxSwitches {
				t.Fatalf("mapped %d clusters (cap %d) from %s", p.M(), MaxSwitches, body)
			}
		}
	})
}
