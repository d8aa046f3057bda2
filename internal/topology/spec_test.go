package topology

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSpecBuild holds each kind to the generator it names, called
// directly with the same parameters.
func TestSpecBuild(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want func() (*Network, error)
	}{
		{Spec{Kind: "irregular", Switches: 16, Degree: 3, Seed: 2000}, func() (*Network, error) {
			return RandomIrregular(16, 3, rand.New(rand.NewSource(2000)), Config{})
		}},
		{Spec{Kind: "rings", Rings: 4, RingSize: 6, Bridges: 1}, func() (*Network, error) { return InterconnectedRings(4, 6, 1, Config{}) }},
		{Spec{Kind: "ring", Switches: 5}, func() (*Network, error) { return Ring(5, Config{}) }},
		{Spec{Kind: "mesh", Rows: 3, Cols: 4}, func() (*Network, error) { return Mesh2D(3, 4, Config{}) }},
		{Spec{Kind: "torus", Rows: 3, Cols: 3}, func() (*Network, error) { return Torus2D(3, 3, Config{}) }},
		{Spec{Kind: "hypercube", Dim: 3}, func() (*Network, error) { return Hypercube(3, Config{}) }},
	} {
		got, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		want, err := c.want()
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := got.MarshalJSON()
		wj, _ := want.MarshalJSON()
		if !bytes.Equal(gj, wj) {
			t.Fatalf("%+v built %s, want %s", c.spec, gj, wj)
		}
	}
	if _, err := (Spec{Kind: "bogus"}).Build(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
