package core

import (
	"context"

	"weseer/internal/schema"
	"weseer/internal/staticlint"
	"weseer/internal/trace"
)

// naiveAnalyzer returns an analyzer whose phases 1–2 run the naive
// pair loop instead of the inverted index.
func naiveAnalyzer(scm *schema.Schema, opts ...Option) *Analyzer {
	a := NewAnalyzer(scm, opts...)
	a.enumOverride = a.enumerateNaive
	return a
}

// enumerateNaive probes every cross-instance transaction pair —
// O(instances²) in corpus size, serial. It is the differential oracle
// for the indexed enumeration (enumerateIndexed): the same chains, in
// the same order, with the same funnel counters, and Stats.IndexProbes
// left zero.
func (a *Analyzer) enumerateNaive(ctx context.Context, traces []*trace.Trace, res *Result) ([]*chain, error) {
	// Pre-rename each trace once per role, and compute each renamed
	// transaction's table signature once: phase 1 probes every pair, so
	// rebuilding the accessed/written maps per probe is quadratic in
	// corpus size.
	inst1 := make([]*trace.Trace, len(traces))
	inst2 := make([]*trace.Trace, len(traces))
	sigs := map[*trace.Txn]txnSig{}
	for i, tr := range traces {
		inst1[i] = tr.Rename("A1.")
		inst2[i] = tr.Rename("A2.")
		for _, in := range []*trace.Trace{inst1[i], inst2[i]} {
			for _, txn := range in.Txns {
				acc, wr := txn.Tables()
				sigs[txn] = txnSig{acc: acc, wr: wr}
			}
		}
	}

	byKey := map[string]*chain{}
	var chains []*chain
	add := func(cyc Cycle) {
		key := cyc.dedupKey()
		ch, ok := byKey[key]
		if !ok {
			ch = &chain{key: key}
			byKey[key] = ch
			chains = append(chains, ch)
		}
		ch.cycles = append(ch.cycles, cyc)
	}

	for i := range traces {
		for j := i; j < len(traces); j++ {
			for _, t1 := range inst1[i].Txns {
				for _, t2 := range inst2[j].Txns {
					if err := ctx.Err(); err != nil {
						return chains, err
					}
					res.Stats.Pairs++
					if !a.opts.SkipPhase1 && !sigs[t1].conflicts(sigs[t2]) {
						continue
					}
					res.Stats.PairsAfterPhase1++
					if a.ps != nil {
						res.Stats.PrescreenPairs++
						sh1 := a.ps.shape(traces[i].API, t1)
						sh2 := a.ps.shape(traces[j].API, t2)
						if !staticlint.PairDeadlockPossible(sh1, sh2, a.scm) {
							res.Stats.PrescreenPairsPruned++
							continue
						}
					}
					// Instances are only allocated for pairs that survive the
					// filters: on large corpora phase 1 rejects the vast
					// majority of pairs.
					p1 := &instance{API: traces[i].API, Prefix: "A1.", Txn: t1, Trace: inst1[i]}
					p2 := &instance{API: traces[j].API, Prefix: "A2.", Txn: t2, Trace: inst2[j]}
					res.Stats.CoarseCycles += a.enumeratePair(p1, p2, add)
				}
			}
		}
	}
	return chains, nil
}
