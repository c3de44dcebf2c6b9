package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/guard"
	"repro/internal/parexec"
	"repro/internal/seqverify"
	"repro/internal/sweep"
)

// satCircuitReport is one row of BENCH_sat.json: the exact-reachability
// attempt and the SAT sweep run side by side on the circuit's
// self-equivalence product, the same check -verify performs after a flow.
type satCircuitReport struct {
	Circuit string `json:"circuit"`
	Gates   int    `json:"gates"`
	Latches int    `json:"latches"`

	// ReachWallMS is the exact product-machine attempt (BDD reachability
	// under reach.DefaultLimits); ReachTooLarge marks the rows past the
	// 32-latch wall where that attempt refuses immediately.
	ReachWallMS   float64 `json:"reach_wall_ms"`
	ReachTooLarge bool    `json:"reach_too_large,omitempty"`

	// Sweep statistics of the K-induction proof over the product AIG.
	SweepWallMS float64 `json:"sweep_wall_ms"`
	Proved      int     `json:"proved"`
	Disproved   int     `json:"disproved"`
	Unknown     int     `json:"unknown"`
	ConstRegs   int     `json:"const_regs,omitempty"`
	Candidates  int     `json:"candidates"`
	Rounds      int     `json:"rounds"`
	SatCalls    int64   `json:"sat_calls"`
	Conflicts   int64   `json:"sat_conflicts"`
	Learned     int64   `json:"sat_learned_clauses"`

	// Verdict is what a verifying flow reports for this circuit: "exact"
	// when the product fits the BDD engine, "proved" when only the
	// induction proof succeeds, "spot-checked" when neither decides, and
	// "disproved" on a genuine counterexample (never on a healthy run).
	Verdict string `json:"verdict"`
	Error   string `json:"error,omitempty"`
}

type satBenchReport struct {
	Schema     string             `json:"schema"`
	InductionK int                `json:"induction_k"`
	Circuits   []satCircuitReport `json:"circuits"`
}

// runSatBench proves every circuit sequentially equivalent to a clone of
// itself twice — once with exact BDD reachability, once with the SAT-based
// K-induction sweep — and writes BENCH_sat.json (schema bench_sat/v1)
// recording which engine decided each row and at what cost. Rows past the
// 32-latch exact wall flip from "spot-checked" to "proved".
func runSatBench(suite []bench.Circuit, budget guard.Budget, workers, inductionK int, out string) {
	reports, err := parexec.Map(context.Background(), workers, suite,
		func(ctx context.Context, _ int, c bench.Circuit) (satCircuitReport, error) {
			return satBenchCircuit(ctx, c, budget, inductionK), nil
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	rep := satBenchReport{Schema: "bench_sat/v1", InductionK: inductionK}
	for _, cr := range reports {
		rep.Circuits = append(rep.Circuits, cr)
		status := cr.Verdict
		switch {
		case cr.Error != "":
			status = "FAILED: " + cr.Error
		case cr.ReachTooLarge:
			status = fmt.Sprintf("%s  %d classes, %d cex, %d unknown, %d conflicts, %.0fms",
				cr.Verdict, cr.Proved, cr.Disproved, cr.Unknown, cr.Conflicts, cr.SweepWallMS)
		default:
			status = fmt.Sprintf("%s  reach %.0fms vs sweep %.0fms",
				cr.Verdict, cr.ReachWallMS, cr.SweepWallMS)
		}
		fmt.Printf("%-10s %s\n", cr.Circuit, status)
	}
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchflows:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d circuits)\n", out, len(rep.Circuits))
}

func satBenchCircuit(ctx context.Context, c bench.Circuit, budget guard.Budget, inductionK int) satCircuitReport {
	cr := satCircuitReport{Circuit: c.Name}
	src, err := c.Build()
	if err != nil {
		cr.Error = err.Error()
		return cr
	}
	cr.Gates = src.NumLogicNodes()
	cr.Latches = len(src.Latches)
	dup := src.Clone()
	if budget.Flow > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget.Flow)
		defer cancel()
	}

	start := time.Now()
	rerr := seqverify.Equivalent(ctx, src, dup, seqverify.Options{})
	cr.ReachWallMS = float64(time.Since(start)) / float64(time.Millisecond)
	switch {
	case rerr == nil:
	case errors.Is(rerr, seqverify.ErrTooLarge):
		cr.ReachTooLarge = true
	default:
		cr.Error = rerr.Error()
		return cr
	}

	start = time.Now()
	res, serr := sweep.ProveEquivalent(ctx, src, dup, 0, sweep.Options{K: inductionK})
	cr.SweepWallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if res != nil {
		cr.Proved = len(res.Classes)
		cr.Disproved = res.Cexes
		cr.Unknown = res.Unknowns
		cr.ConstRegs = len(res.Const)
		cr.Candidates = res.Candidates
		cr.Rounds = res.Rounds
		cr.SatCalls = res.SatCalls
		cr.Conflicts = res.Conflicts
		cr.Learned = res.Learned
	}

	switch {
	case rerr == nil:
		cr.Verdict = "exact"
	case serr == nil:
		cr.Verdict = "proved"
	case errors.Is(serr, sweep.ErrUnknown):
		cr.Verdict = "spot-checked"
	default:
		var neq *sweep.NotEquivalentError
		if errors.As(serr, &neq) {
			cr.Verdict = "disproved"
		}
		cr.Error = serr.Error()
	}
	return cr
}
