package main

import (
	"testing"

	"weseer/internal/apps/appkit"
	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
	"weseer/internal/concolic"
	"weseer/internal/core"
	"weseer/internal/minidb"
	"weseer/internal/obs"
	"weseer/internal/schema"
	"weseer/internal/solver"
)

// TestFunnelInvariants guards the owner-charged funnel accounting on
// the Table II workload at parallelism 1, 4, and 16: the memoization
// split SolverCalls + MemoHits == GroupsSolved must hold, Stats.Engine
// must aggregate to the same counters at every worker count (each
// distinct canonical formula is charged exactly once, by the call that
// owned it), and the deterministic funnel must not vary with
// parallelism. The runs are observed, so the exported funnel counters
// are checked against Result.Stats too.
func TestFunnelInvariants(t *testing.T) {
	type target struct {
		name  string
		scm   *schema.Schema
		tests []appkit.UnitTest
	}
	blApp := broadleaf.New(broadleaf.Fixes{}, minidb.Config{})
	shApp := shopizer.New(shopizer.Fixes{}, minidb.Config{})
	targets := []target{
		{"broadleaf", broadleaf.Schema(), blApp.UnitTests()},
		{"shopizer", shopizer.Schema(), shApp.UnitTests()},
	}

	for _, tg := range targets {
		traces, err := appkit.Collect(tg.tests, concolic.ModeConcolic)
		if err != nil {
			t.Fatalf("%s: collect: %v", tg.name, err)
		}
		var baseline core.Stats
		for i, workers := range []int{1, 4, 16} {
			o := obs.NewObserver()
			res := analyze(tg.scm, traces, core.WithParallelism(workers), core.WithObserver(o))
			s := res.Stats

			if s.SolverCalls+s.MemoHits != s.GroupsSolved {
				t.Errorf("%s/p%d: SolverCalls %d + MemoHits %d != GroupsSolved %d",
					tg.name, workers, s.SolverCalls, s.MemoHits, s.GroupsSolved)
			}
			if s.SolverCalls > 0 && s.Engine == (solver.Stats{}) {
				t.Errorf("%s/p%d: Engine counters are all zero after %d solver calls",
					tg.name, workers, s.SolverCalls)
			}
			if i == 0 {
				baseline = s.WithoutTimings()
			} else if got := s.WithoutTimings(); got != baseline {
				t.Errorf("%s/p%d: funnel differs from serial:\n got %+v\nwant %+v",
					tg.name, workers, got, baseline)
			}

			// The observer mirrors the merge field for field, so the
			// exported funnel counters must equal the report's stats.
			snap := o.Snapshot()
			for metric, want := range map[string]int{
				"weseer_funnel_traces_total":             s.Traces,
				"weseer_funnel_txn_pairs_total":          s.Pairs,
				"weseer_funnel_pairs_after_phase1_total": s.PairsAfterPhase1,
				"weseer_funnel_coarse_cycles_total":      s.CoarseCycles,
				"weseer_funnel_lock_filtered_total":      s.LockFiltered,
				"weseer_funnel_groups_solved_total":      s.GroupsSolved,
				"weseer_funnel_solver_calls_total":       s.SolverCalls,
				"weseer_funnel_memo_hits_total":          s.MemoHits,
				"weseer_solver_sat_total":                s.SolverSAT,
				"weseer_solver_unsat_total":              s.SolverUNSAT,
				"weseer_solver_unknown_total":            s.SolverUnknown,
				"weseer_cdcl_decisions_total":            s.Engine.Decisions,
				"weseer_cdcl_conflicts_total":            s.Engine.Conflicts,
				"weseer_cdcl_propagations_total":         s.Engine.Propagations,
				"weseer_cdcl_theory_calls_total":         s.Engine.TheoryCalls,
			} {
				if got := snap[metric]; got != float64(want) {
					t.Errorf("%s/p%d: metric %s = %v, want %d (Result.Stats)",
						tg.name, workers, metric, got, want)
				}
			}
			if got := snap["weseer_solver_seconds_count"]; got != float64(s.SolverCalls) {
				t.Errorf("%s/p%d: latency histogram count %v != SolverCalls %d",
					tg.name, workers, got, s.SolverCalls)
			}
			t.Logf("%s/p%d: %d groups = %d solver calls + %d memo hits",
				tg.name, workers, s.GroupsSolved, s.SolverCalls, s.MemoHits)
		}
	}
}
