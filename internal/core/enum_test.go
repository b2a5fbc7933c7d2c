package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"weseer/internal/schema"
	"weseer/internal/smt"
	"weseer/internal/trace"
)

// Differential tests for the indexed, parallel phase-1/2 enumeration:
// the serial quadratic loop (naiveAnalyzer) is the oracle, and the
// indexed path must reproduce its report byte-for-byte at any worker
// count, on seeded random corpora as well as the curated workloads.

// randSchema is a pool of simple keyed tables for the random corpora.
func randSchema(tables int) *schema.Schema {
	s := schema.New()
	for i := 0; i < tables; i++ {
		s.AddTable(fmt.Sprintf("T%d", i)).
			Col("ID", schema.Int).
			Col("V", schema.Int).
			PrimaryKey("ID")
	}
	return s
}

// randTraces builds a seeded random corpus over the T* tables: each
// trace is one API with 1–2 transactions of 1–3 statements, each a
// point SELECT or a point UPDATE on a random table. Sparse by
// construction — most instance pairs do not conflict — which is
// exactly the regime the inverted index exists for.
func randTraces(rng *rand.Rand, traces, tables int) []*trace.Trace {
	out := make([]*trace.Trace, 0, traces)
	for n := 0; n < traces; n++ {
		tr := &trace.Trace{API: fmt.Sprintf("Rnd%03d", n)}
		txns := 1 + rng.Intn(2)
		seq := 0
		for id := 1; id <= txns; id++ {
			txn := &trace.Txn{ID: id, Committed: true}
			stmts := 1 + rng.Intn(3)
			for k := 0; k < stmts; k++ {
				tbl := fmt.Sprintf("T%d", rng.Intn(tables))
				key := smt.NewVar(fmt.Sprintf("k%d", seq), smt.SortInt)
				var st *trace.Stmt
				if rng.Intn(3) == 0 { // 1-in-3 statements write
					st = mkStmt(seq, fmt.Sprintf(`UPDATE %s SET V = ? WHERE ID = ?`, tbl),
						[]smt.Expr{smt.Int(int64(rng.Intn(5))), key}, nil)
				} else {
					st = mkStmt(seq, fmt.Sprintf(`SELECT * FROM %s t WHERE t.ID = ?`, tbl),
						[]smt.Expr{key},
						&trace.Result{Cols: []string{"t.ID", "t.V"}, Sym: [][]smt.Var{{
							{Name: fmt.Sprintf("res%d.row0.t.ID", seq), S: smt.SortInt},
							{Name: fmt.Sprintf("res%d.row0.t.V", seq), S: smt.SortInt},
						}}})
				}
				st.TxnID = id
				tr.Inputs = append(tr.Inputs, trace.Input{
					Name: key.Name, Sort: smt.SortInt, Concrete: smt.IntValue(int64(seq + 1)),
				})
				txn.Stmts = append(txn.Stmts, st)
				seq++
			}
			tr.Txns = append(tr.Txns, txn)
		}
		out = append(out, tr)
	}
	return out
}

// comparable strips the fields that legitimately differ between the
// naive and indexed paths: wall times, worker count, and the index's
// own probe counter (zero for the oracle by definition).
func comparable(s Stats) Stats {
	s = s.WithoutTimings()
	s.IndexProbes = 0
	return s
}

// diffRun asserts that the indexed enumeration at the given worker
// counts reproduces the naive loop's report byte-for-byte under the
// same extra options.
func diffRun(t *testing.T, scm *schema.Schema, traces []*trace.Trace, workerCounts []int, extra ...Option) {
	t.Helper()
	naive, err := naiveAnalyzer(scm, append([]Option{WithParallelism(1)}, extra...)...).
		AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		ix, err := NewAnalyzer(scm, append([]Option{WithParallelism(workers)}, extra...)...).
			AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(naive.Deadlocks, ix.Deadlocks) {
			t.Fatalf("p%d: indexed deadlocks differ from naive oracle (%d vs %d)",
				workers, len(ix.Deadlocks), len(naive.Deadlocks))
		}
		if comparable(naive.Stats) != comparable(ix.Stats) {
			t.Fatalf("p%d: funnel differs:\nnaive:   %+v\nindexed: %+v",
				workers, comparable(naive.Stats), comparable(ix.Stats))
		}
		for i, d := range naive.Deadlocks {
			if d.Render() != ix.Deadlocks[i].Render() {
				t.Fatalf("p%d: deadlock %d renders differently", workers, i)
			}
		}
		if naive.Stats.IndexProbes != 0 {
			t.Fatalf("naive oracle walked the index: %+v", naive.Stats)
		}
	}
}

// TestEnumDifferentialCurated runs the oracle comparison on the curated
// fine-mode workload — full SMT discharge, so the SAT-representative
// choice (which depends on within-chain cycle order) is covered.
func TestEnumDifferentialCurated(t *testing.T) {
	diffRun(t, fig1Schema(), pipelineTraces(), []int{1, 4, 16})
}

// TestEnumDifferentialRandom sweeps seeded random corpora in coarse
// mode (phases 1–2 + dedup dominate; the solver adds nothing to the
// surface under test) across several worker counts.
func TestEnumDifferentialRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tables := 4 + rng.Intn(5)
			traces := randTraces(rng, 20+rng.Intn(21), tables)
			diffRun(t, randSchema(tables), traces, []int{1, 4, 16}, WithCoarseOnly())
		})
	}
}

// TestEnumDifferentialRandomFine covers a smaller random corpus end to
// end, SMT discharge included.
func TestEnumDifferentialRandomFine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	traces := randTraces(rng, 10, 4)
	diffRun(t, randSchema(4), traces, []int{1, 4})
}

// TestEnumDifferentialAblations pins the oracle equivalence under the
// interacting options: SkipPhase1 (the indexed path must fall back to
// full suffix enumeration, not the index) and the Phase-0 prescreen
// (whose shape cache the parallel path precomputes serially).
func TestEnumDifferentialAblations(t *testing.T) {
	t.Run("skip-phase1", func(t *testing.T) {
		diffRun(t, fig1Schema(), pipelineTraces(), []int{1, 4}, WithoutPhase1())
	})
	t.Run("prescreen", func(t *testing.T) {
		diffRun(t, fig1Schema(), pipelineTraces(), []int{1, 4}, WithPrescreen())
	})
	t.Run("max-cycles", func(t *testing.T) {
		diffRun(t, fig1Schema(), pipelineTraces(), []int{1, 4}, WithMaxCyclesPerPair(2))
	})
}

// TestEnumIndexSurvivorsExact cross-checks the inverted index against
// the phase-1 predicate directly: for random signature sets, the
// candidate list must equal the brute-force conflicts() survivors, in
// ordinal order.
func TestEnumIndexSurvivorsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tables := []string{"a", "b", "c", "d", "e"}
	randSig := func() txnSig {
		sig := txnSig{acc: map[string]bool{}, wr: map[string]bool{}}
		for _, tbl := range tables {
			switch rng.Intn(4) {
			case 0: // write (writes imply access)
				sig.acc[tbl], sig.wr[tbl] = true, true
			case 1: // read only
				sig.acc[tbl] = true
			}
		}
		return sig
	}
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(40)
		sigs := make([]txnSig, n)
		for i := range sigs {
			sigs[i] = randSig()
		}
		ix := buildConflictIndex(sigs)
		s := newEnumScratch(n)
		for li := range sigs {
			startOrd := rng.Intn(n)
			var want []int
			for r := startOrd; r < n; r++ {
				if sigs[li].conflicts(sigs[r]) {
					want = append(want, r)
				}
			}
			got, probes := ix.candidates(sigs[li], startOrd, s)
			if !reflect.DeepEqual(append([]int{}, got...), append([]int{}, want...)) {
				t.Fatalf("round %d left %d start %d: candidates = %v, want %v", round, li, startOrd, got, want)
			}
			if len(got) > 0 && probes == 0 {
				t.Fatalf("round %d: survivors without probes", round)
			}
		}
	}
}

// TestEnumScratchEpochWraparound forces the uint32 epoch through zero
// and checks stale marks cannot alias into a fresh query.
func TestEnumScratchEpochWraparound(t *testing.T) {
	sigs := []txnSig{
		{acc: map[string]bool{"x": true, "y": true}, wr: map[string]bool{"x": true, "y": true}},
		{acc: map[string]bool{"x": true}, wr: map[string]bool{"x": true}},
	}
	ix := buildConflictIndex(sigs)
	s := newEnumScratch(len(sigs))
	s.epoch = ^uint32(0) - 1 // two bumps away from wrapping to zero
	for i := 0; i < 4; i++ {
		got, _ := ix.candidates(sigs[0], 0, s)
		if want := []int{0, 1}; !reflect.DeepEqual(append([]int{}, got...), want) {
			t.Fatalf("bump %d (epoch %d): candidates = %v, want %v", i, s.epoch, got, want)
		}
	}
}

// TestEnumIndexedCancellation mirrors TestAnalyzeContextCancellation on
// the indexed path: a pre-canceled context must surface
// context.Canceled from inside the worker fan-out without discharging
// anything.
func TestEnumIndexedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := NewAnalyzer(fig1Schema(), WithParallelism(workers)).
			AnalyzeContext(ctx, pipelineTraces())
		if err != context.Canceled {
			t.Fatalf("p%d: err = %v, want context.Canceled", workers, err)
		}
		if res == nil {
			t.Fatalf("p%d: canceled run must still return the partial result", workers)
		}
		if res.Stats.SolverCalls != 0 {
			t.Errorf("p%d: pre-canceled context still made %d solver calls", workers, res.Stats.SolverCalls)
		}
	}
}

// TestEnumIndexProbesDeterministic pins the new funnel counter: probes
// are nonzero on the indexed path, stable across runs and worker
// counts, and zero when the index is ablated away.
func TestEnumIndexProbesDeterministic(t *testing.T) {
	traces := pipelineTraces()
	base, err := NewAnalyzer(fig1Schema(), WithParallelism(1)).
		AnalyzeContext(context.Background(), traces)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.IndexProbes == 0 {
		t.Fatal("indexed run recorded no probes")
	}
	for _, workers := range []int{1, 4, 16} {
		res, err := NewAnalyzer(fig1Schema(), WithParallelism(workers)).
			AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.IndexProbes != base.Stats.IndexProbes {
			t.Errorf("p%d: IndexProbes = %d, want %d", workers, res.Stats.IndexProbes, base.Stats.IndexProbes)
		}
	}
	for name, a := range map[string]*Analyzer{
		"naive":       naiveAnalyzer(fig1Schema(), WithParallelism(1)),
		"skip-phase1": NewAnalyzer(fig1Schema(), WithParallelism(1), WithoutPhase1()),
	} {
		res, err := a.AnalyzeContext(context.Background(), traces)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.IndexProbes != 0 {
			t.Errorf("%s: IndexProbes = %d, want 0", name, res.Stats.IndexProbes)
		}
	}
}

// benchCorpus is a fixed 160-trace sparse corpus for the enumeration
// microbenchmarks: big enough that the quadratic pair loop dominates in
// coarse mode.
func benchCorpus() (*schema.Schema, []*trace.Trace) {
	rng := rand.New(rand.NewSource(17))
	const tables = 12
	return randSchema(tables), randTraces(rng, 160, tables)
}

func benchEnum(b *testing.B, build func(*schema.Schema, ...Option) *Analyzer, opts ...Option) {
	scm, traces := benchCorpus()
	opts = append(opts, WithCoarseOnly())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(scm, opts...).AnalyzeContext(context.Background(), traces); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumNaive(b *testing.B) {
	benchEnum(b, naiveAnalyzer, WithParallelism(1))
}

func BenchmarkEnumIndexed(b *testing.B) {
	benchEnum(b, NewAnalyzer, WithParallelism(1))
}

func BenchmarkEnumIndexedParallel(b *testing.B) {
	benchEnum(b, NewAnalyzer, WithParallelism(4))
}
