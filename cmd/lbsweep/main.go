// Command lbsweep runs the scaling ("figure") experiments F1–F6 listed in
// README.md's command table — the Theorem 3 and Theorem 8
// discrepancy-vs-parameter sweeps, the continuous convergence-time
// comparison, the dummy-token sweep, the SOS negative-load check — plus
// the ablations F7–F10 (potential drop, α choice, Algorithm 1 task
// policy, SOS β sweep, excess-token vs rotor).
//
// Usage:
//
//	lbsweep [-quick] [-exp f1|...|f10|all]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lbsweep:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick = flag.Bool("quick", false, "use the reduced smoke-test configuration")
		exp   = flag.String("exp", "all", "which experiment to run: f1..f6 or all")
	)
	flag.Parse()

	if err := cli.ValidateChoice("exp", *exp, cli.ExpNames()); err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	dims := []int{3, 4, 5, 6, 7, 8, 9, 10}
	sizes := []int{64, 128, 256, 512}
	wmaxes := []int64{1, 2, 4, 8, 16}
	if *quick {
		cfg = experiments.QuickConfig()
		dims = []int{3, 4, 5, 6}
		sizes = []int{32, 64, 128}
		wmaxes = []int64{1, 2, 4}
	}

	want := func(id string) bool { return *exp == "all" || *exp == id }

	if want("f1") {
		points, err := experiments.Theorem3ScalingD(dims, sizes, cfg)
		if err != nil {
			return fmt.Errorf("f1: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F1 — Theorem 3: Algorithm 1 max-avg discrepancy vs d and vs n (bound 2d·wmax+2)", points))
		fmt.Println()
	}
	if want("f2") {
		points, err := experiments.Theorem3ScalingWmax(wmaxes, cfg)
		if err != nil {
			return fmt.Errorf("f2: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F2 — Theorem 3: Algorithm 1 max-avg discrepancy vs wmax (torus, random speeds)", points))
		fmt.Println()
	}
	if want("f3") {
		points, err := experiments.Theorem8Scaling(dims, sizes, cfg)
		if err != nil {
			return fmt.Errorf("f3: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F3 — Theorem 8: Algorithm 2 max-avg discrepancy vs d and vs n (bound d/4+sqrt(d·ln n))", points))
		fmt.Println()
	}
	if want("f4") {
		graphs, err := convergenceGraphs(*quick)
		if err != nil {
			return fmt.Errorf("f4: %w", err)
		}
		points, err := experiments.ConvergenceTimes(graphs, cfg)
		if err != nil {
			return fmt.Errorf("f4: %w", err)
		}
		fmt.Print(experiments.FormatConvergence(points))
		fmt.Println()
	}
	if want("f5") {
		d := 4 // torus degree
		floors := []int64{0, int64(d) / 2, int64(d), 2 * int64(d)}
		points, err := experiments.DummyTokenSweep(floors, cfg)
		if err != nil {
			return fmt.Errorf("f5: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F5 — dummy tokens created vs initial-load floor ℓ (zero at ℓ >= d·wmax for Alg 1)", points))
		fmt.Println()
	}
	if want("f6") {
		points, err := experiments.SOSNegativeLoadCheck(cfg)
		if err != nil {
			return fmt.Errorf("f6: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F6 — Definition 1 check on a cycle: value=1 iff the process induced negative load (x = first offending round, extra = Alg 1 dummies)", points))
		fmt.Println()
	}
	if want("f7") {
		rounds := 60
		if *quick {
			rounds = 25
		}
		points, err := experiments.PotentialDrop(cfg, rounds)
		if err != nil {
			return fmt.Errorf("f7: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F7 — quadratic potential Φ(t): continuous FOS vs Alg 1 vs round-down (hypercube)", points))
		fmt.Println()
	}
	if want("f8") {
		points, err := experiments.AlphaAblation(cfg)
		if err != nil {
			return fmt.Errorf("f8: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F8 — ablation: diffusion parameter α (value = Alg 1 max-avg, extra = T)", points))
		fmt.Println()
	}
	if want("f9") {
		points, err := experiments.PolicyAblation(cfg)
		if err != nil {
			return fmt.Errorf("f9: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F9 — ablation: Algorithm 1 task-selection policy (weighted tasks, value = max-avg, extra = dummies)", points))
		fmt.Println()
	}
	if want("f10") {
		betas := []float64{1.0, 1.3, 1.6, 1.8, 1.9}
		if *quick {
			betas = []float64{1.0, 1.5, 1.8}
		}
		points, err := experiments.BetaSweep(betas, cfg)
		if err != nil {
			return fmt.Errorf("f10: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F10 — ablation: SOS balancing time vs β on a cycle (extra = 1 iff negative load)", points))
		fmt.Println()
		pts, err := experiments.ExcessVsRotor(cfg)
		if err != nil {
			return fmt.Errorf("f10: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F10b — excess-token [9] vs rotor derandomization [5] (worst max-min over trials)", pts))
		fmt.Println()
	}
	if want("f11") {
		cycleSizes := []int{16, 32, 64, 128}
		if *quick {
			cycleSizes = []int{16, 32, 64}
		}
		lbCfg := cfg
		lbCfg.MaxRounds = 5_000_000
		points, err := experiments.CycleLowerBound(cycleSizes, lbCfg)
		if err != nil {
			return fmt.Errorf("f11: %w", err)
		}
		fmt.Print(experiments.FormatScalePoints(
			"F11 — Ω(diam) separation on cycles: round-down grows with n, Alg 1 stays at O(d)", points))
	}
	return nil
}

func convergenceGraphs(quick bool) (map[string]*graph.Graph, error) {
	type spec struct {
		name  string
		build func() (*graph.Graph, error)
	}
	specs := []spec{
		{"cycle-64", func() (*graph.Graph, error) { return graph.Cycle(64) }},
		{"torus-16x16", func() (*graph.Graph, error) { return graph.Torus(16, 16) }},
		{"hypercube-8", func() (*graph.Graph, error) { return graph.Hypercube(8) }},
	}
	if quick {
		specs = []spec{
			{"cycle-32", func() (*graph.Graph, error) { return graph.Cycle(32) }},
			{"torus-8x8", func() (*graph.Graph, error) { return graph.Torus(8, 8) }},
			{"hypercube-6", func() (*graph.Graph, error) { return graph.Hypercube(6) }},
		}
	}
	graphs := make(map[string]*graph.Graph, len(specs))
	for _, sp := range specs {
		g, err := sp.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		graphs[sp.name] = g
	}
	return graphs, nil
}
