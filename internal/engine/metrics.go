package engine

// Sample is one round's streamed measurements: the discrepancy metrics the
// paper bounds, the dummy-token count, the workload totals, topology size,
// and the wall-clock latency of the round.
type Sample struct {
	// Round is the round index the sample was taken after.
	Round int64 `json:"round"`
	// Nodes and Edges are the active topology size.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// MaxAvg is the max-avg discrepancy of the real (dummy-eliminated)
	// load, the quantity Theorem 3 bounds by 2·d·wmax+2 at the continuous
	// balancing time.
	MaxAvg float64 `json:"max_avg"`
	// MaxMin is the max-min discrepancy of the real load.
	MaxMin float64 `json:"max_min"`
	// Potential is the quadratic potential Φ of the real load.
	Potential float64 `json:"potential"`
	// Dummies is the cumulative dummy weight drawn from the infinite
	// source (including by nodes that have since left).
	Dummies int64 `json:"dummies"`
	// RealTotal is the conserved non-dummy task weight W.
	RealTotal int64 `json:"real_total"`
	// Events is the cumulative number of events applied.
	Events int64 `json:"events"`
	// StepNanos is the wall-clock duration of the round, event application
	// and metrics included.
	StepNanos int64 `json:"step_nanos"`
	// HotNodes and HotEdges are the activity-gate hot-set occupancy of the
	// round (the full active counts when gating is off).
	HotNodes int `json:"hot_nodes"`
	HotEdges int `json:"hot_edges"`
}
