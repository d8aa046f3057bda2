package topology

import (
	"fmt"
	"math/rand"
)

// Spec names one of the package's generators and its parameters: the
// form that the commands' topology flags and a service job's "generate"
// object share. The JSON tags are the service's wire format.
type Spec struct {
	// Kind is the generator: irregular, rings, ring, mesh, torus, or
	// hypercube.
	Kind string `json:"kind"`
	// Switches / Degree parameterize irregular and ring.
	Switches int `json:"switches,omitempty"`
	Degree   int `json:"degree,omitempty"`
	// Rings / RingSize / Bridges parameterize rings.
	Rings    int `json:"rings,omitempty"`
	RingSize int `json:"ring_size,omitempty"`
	Bridges  int `json:"bridges,omitempty"`
	// Rows / Cols parameterize mesh and torus; Dim the hypercube.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	Dim  int `json:"dim,omitempty"`
	// Seed drives the irregular generator.
	Seed int64 `json:"seed,omitempty"`
}

// Build runs the generator Kind names, with the default switch
// configuration.
func (s Spec) Build() (*Network, error) {
	cfg := Config{}
	switch s.Kind {
	case "irregular":
		return RandomIrregular(s.Switches, s.Degree, rand.New(rand.NewSource(s.Seed)), cfg)
	case "rings":
		return InterconnectedRings(s.Rings, s.RingSize, s.Bridges, cfg)
	case "ring":
		return Ring(s.Switches, cfg)
	case "mesh":
		return Mesh2D(s.Rows, s.Cols, cfg)
	case "torus":
		return Torus2D(s.Rows, s.Cols, cfg)
	case "hypercube":
		return Hypercube(s.Dim, cfg)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q (want irregular, rings, ring, mesh, torus, or hypercube)", s.Kind)
	}
}
