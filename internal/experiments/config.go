// Package experiments contains the drivers that regenerate the paper's
// evaluation artifacts: Table 1 (diffusion model), Table 2 (matching model),
// and the theorem-scaling experiments F1–F6 listed in README.md. The same
// drivers back cmd/lbtable, cmd/lbsweep and the repository benchmarks.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// GraphClass identifies one of the graph families from the paper's tables.
type GraphClass int

const (
	// ClassArbitrary is a connected Erdős–Rényi graph (non-regular).
	ClassArbitrary GraphClass = iota + 1
	// ClassExpander is a random 3-regular graph (constant-degree expander
	// w.h.p.).
	ClassExpander
	// ClassHypercube is the log2(n)-dimensional hypercube.
	ClassHypercube
	// ClassTorus is the 2-dimensional square torus.
	ClassTorus
	// ClassTorus3D is the 3-dimensional cubic torus (the "r-dim tori,
	// r = O(1)" column of the paper's tables at r = 3).
	ClassTorus3D
)

// String implements fmt.Stringer.
func (c GraphClass) String() string {
	switch c {
	case ClassArbitrary:
		return "arbitrary"
	case ClassExpander:
		return "expander-3reg"
	case ClassHypercube:
		return "hypercube"
	case ClassTorus:
		return "torus-2d"
	case ClassTorus3D:
		return "torus-3d"
	default:
		return fmt.Sprintf("GraphClass(%d)", int(c))
	}
}

// BuildClass instantiates a graph of the given class with approximately n
// nodes (hypercubes round n down to a power of two; tori to a square).
func BuildClass(c GraphClass, n int, seed int64) (*graph.Graph, error) {
	switch c {
	case ClassArbitrary:
		rng := rand.New(rand.NewSource(seed))
		// Average degree about 8, comfortably connected, non-regular.
		p := 8.0 / float64(n-1)
		if p > 1 {
			p = 1
		}
		return graph.ErdosRenyi(n, p, rng)
	case ClassExpander:
		rng := rand.New(rand.NewSource(seed))
		if n%2 == 1 {
			n++
		}
		return graph.RandomRegular(n, 3, rng)
	case ClassHypercube:
		dim := 0
		for (1 << (dim + 1)) <= n {
			dim++
		}
		return graph.Hypercube(dim)
	case ClassTorus:
		side := 3
		for (side+1)*(side+1) <= n {
			side++
		}
		return graph.Torus(side, side)
	case ClassTorus3D:
		side := 3
		for (side+1)*(side+1)*(side+1) <= n {
			side++
		}
		return graph.Torus(side, side, side)
	default:
		return nil, fmt.Errorf("experiments: unknown graph class %v", c)
	}
}

// Config controls the size and statistical effort of the table experiments.
type Config struct {
	// N is the target node count per graph instance.
	N int
	// TokensPerNode sets the total load m = TokensPerNode * n, all placed
	// on node 0 (the adversarial point mass, K = m).
	TokensPerNode int64
	// Trials is the number of independent seeds for randomized schemes.
	Trials int
	// Seed is the base randomness seed.
	Seed int64
	// MaxRounds caps the continuous balancing-time probe.
	MaxRounds int
}

// DefaultConfig returns the paper-scale defaults used by cmd/lbtable.
func DefaultConfig() Config {
	return Config{
		N:             256,
		TokensPerNode: 64,
		Trials:        8,
		Seed:          1,
		MaxRounds:     500_000,
	}
}

// QuickConfig returns a reduced configuration for benchmarks and smoke
// tests.
func QuickConfig() Config {
	return Config{
		N:             64,
		TokensPerNode: 32,
		Trials:        3,
		Seed:          1,
		MaxRounds:     200_000,
	}
}

func (c Config) validate() error {
	if c.N < 4 {
		return fmt.Errorf("experiments: N %d too small", c.N)
	}
	if c.TokensPerNode < 1 {
		return fmt.Errorf("experiments: TokensPerNode %d must be >= 1", c.TokensPerNode)
	}
	if c.Trials < 1 {
		return fmt.Errorf("experiments: Trials %d must be >= 1", c.Trials)
	}
	if c.MaxRounds < 1 {
		return fmt.Errorf("experiments: MaxRounds %d must be >= 1", c.MaxRounds)
	}
	return nil
}

// Row is one (graph class, scheme) cell of a reproduced table.
type Row struct {
	Class   GraphClass
	N       int
	MaxDeg  int
	Scheme  string
	T       int
	Trials  int
	MaxMin  float64 // worst final max-min discrepancy over trials
	MeanMM  float64 // mean final max-min discrepancy over trials
	MaxAvg  float64 // worst final max-avg discrepancy over trials
	Dummies int64   // total dummy weight created (worst trial)
	Neg     bool    // any trial drove a node negative
}
