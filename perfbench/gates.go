package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"weseer/internal/core"
	"weseer/internal/history"
)

// Output gates. Every pass and every request is checked before its
// timing is used; a failed check counts as a failed operation. The
// gates never pin literal fingerprint values (they depend on where the
// program was built): fingerprints are only compared within one run.

// runStats is the part of the `weseer run -json` funnel the gates read.
type runStats struct {
	GroupsSolved int `json:"groups_solved"`
	SolverCalls  int `json:"solver_calls"`
	MemoHits     int `json:"memo_hits"`
	Unknown      int `json:"unknown"`
}

// runEntry is one reported deadlock of `weseer run -json`.
type runEntry struct {
	Fingerprint string    `json:"fingerprint"`
	Catalog     string    `json:"catalog"`
	APIs        [2]string `json:"apis"`
	Tables      [2]string `json:"tables"`
	Count       int       `json:"count"`
}

// runReport is one parsed `weseer run -json` output.
type runReport struct {
	Stats     runStats   `json:"stats"`
	Deadlocks []runEntry `json:"deadlocks"`
	// det is the deterministic report: the funnel stats without the
	// fields that legitimately vary between runs (timings, worker
	// count), plus every entry, in a canonical encoding.
	det []byte
}

// timingFields are the -json stats fields that vary between identical
// runs; everything else in the report must repeat byte for byte.
var timingFields = []string{"parallelism", "solver_time_ms", "enum_time_ms", "fine_time_ms"}

func parseRunReport(data []byte) (runReport, error) {
	var rep runReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("decode report: %w", err)
	}
	var raw struct {
		Stats     map[string]json.RawMessage `json:"stats"`
		Deadlocks json.RawMessage            `json:"deadlocks"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return rep, fmt.Errorf("decode report: %w", err)
	}
	if raw.Stats == nil {
		return rep, fmt.Errorf("report has no stats")
	}
	for _, k := range timingFields {
		delete(raw.Stats, k)
	}
	det, err := json.Marshal(raw) // map keys marshal sorted
	if err != nil {
		return rep, err
	}
	rep.det = det
	return rep, nil
}

// reportOf is what `weseer run -json` would print for res: its funnel
// and every deadlock, classified by the app's catalog. The traced run
// gates its in-process diagnoses with it.
func reportOf(res *core.Result, classify func(*core.Deadlock) string) runReport {
	rep := runReport{Stats: runStats{
		GroupsSolved: res.Stats.GroupsSolved,
		SolverCalls:  res.Stats.SolverCalls,
		MemoHits:     res.Stats.MemoHits,
		Unknown:      res.Stats.SolverUnknown,
	}}
	for _, d := range res.Deadlocks {
		rep.Deadlocks = append(rep.Deadlocks, runEntry{
			Fingerprint: d.Fingerprint(),
			Catalog:     classify(d),
			APIs:        d.APIs,
			Tables:      [2]string{d.Cycle.Table1, d.Cycle.Table2},
			Count:       d.Count,
		})
	}
	return rep
}

// sameReports checks that a pass's deterministic reports equal the
// reference pass's, spec by spec.
func sameReports(ref, got []runReport, specs []string) error {
	if len(ref) != len(got) {
		return fmt.Errorf("pass produced %d reports, reference has %d", len(got), len(ref))
	}
	for i := range ref {
		if !bytes.Equal(ref[i].det, got[i].det) {
			return fmt.Errorf("%s: report differs from the first pass's", specs[i])
		}
	}
	return nil
}

// catalogs returns the set of catalog ids reported.
func catalogs(reps []runReport) map[string]bool {
	out := map[string]bool{}
	for _, r := range reps {
		for _, d := range r.Deadlocks {
			if d.Catalog != "" {
				out[d.Catalog] = true
			}
		}
	}
	return out
}

// missing lists, in want's order, the ids of want not in have.
func missing(have map[string]bool, want []string) []string {
	var out []string
	for _, id := range want {
		if !have[id] {
			out = append(out, id)
		}
	}
	return out
}

func idRange(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return out
}

// The Table II invariants (paper Table II; pinned by the repository's
// own tests): all 18 cataloged deadlocks found, and a combined funnel
// of 326 solved groups = 226 solver calls + 100 memo hits, 245 reports,
// no solver UNKNOWN.
var (
	tableIIIDs = idRange("d", 18)
	tableII    = struct{ groups, calls, memo, reports int }{326, 226, 100, 245}
)

// gateTable2 checks one table2 pass: the broadleaf and shopizer reports
// together.
func gateTable2(reps []runReport) error {
	if m := missing(catalogs(reps), tableIIIDs); len(m) > 0 {
		return fmt.Errorf("table2: catalog ids not found: %s", strings.Join(m, ","))
	}
	var groups, calls, memo, reports, unknown int
	for _, r := range reps {
		groups += r.Stats.GroupsSolved
		calls += r.Stats.SolverCalls
		memo += r.Stats.MemoHits
		unknown += r.Stats.Unknown
		reports += len(r.Deadlocks)
	}
	if groups != tableII.groups || calls != tableII.calls || memo != tableII.memo {
		return fmt.Errorf("table2: funnel %d groups = %d solver calls + %d memo hits, want %d = %d + %d",
			groups, calls, memo, tableII.groups, tableII.calls, tableII.memo)
	}
	if reports != tableII.reports {
		return fmt.Errorf("table2: %d reports, want %d", reports, tableII.reports)
	}
	if unknown != 0 {
		return fmt.Errorf("table2: %d solver UNKNOWN verdicts, want 0", unknown)
	}
	return nil
}

// plantedClasses are the anti-pattern classes every gen: corpus plants.
var plantedClasses = idRange("f", 11)

// gateGen checks a generated-corpus pass: every planted class is
// diagnosed and no candidate was dropped as UNKNOWN.
func gateGen(reps []runReport) error {
	if m := missing(catalogs(reps), plantedClasses); len(m) > 0 {
		return fmt.Errorf("gen: planted classes not diagnosed: %s", strings.Join(m, ","))
	}
	for _, r := range reps {
		if r.Stats.Unknown != 0 {
			return fmt.Errorf("gen: %d solver UNKNOWN verdicts, want 0", r.Stats.Unknown)
		}
	}
	return nil
}

// gateTraceIngest checks one POST /ingest?format=traces summary against
// want, the number of events (distinct fingerprints) the batch
// diagnoses. The first sighting of a corpus stores them all; every
// repeat stores nothing and touches them all.
func gateTraceIngest(spec string, want int, sum history.IngestSummary) (stored bool, err error) {
	if sum.Received != want || sum.Stored+sum.Deduped != sum.Received {
		return false, fmt.Errorf("ingest %s: received %d (stored %d + deduped %d), want %d",
			spec, sum.Received, sum.Stored, sum.Deduped, want)
	}
	switch sum.Stored {
	case 0:
		return false, nil
	case want:
		return true, nil
	}
	return false, fmt.Errorf("ingest %s: stored %d, want 0 (repeat) or %d (first sighting)", spec, sum.Stored, want)
}

// gateFirstSightings checks, at the end of a run, that each ingested
// corpus was stored by exactly one request: any later ingest that
// stored events would be a broken dedup.
func gateFirstSightings(storing map[string]int) error {
	var bad []string
	for spec, n := range storing {
		if n != 1 {
			bad = append(bad, fmt.Sprintf("%s stored by %d requests", spec, n))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("trace re-ingest stored events: %s", strings.Join(bad, "; "))
	}
	return nil
}

// gateEventsIngest checks one POST /ingest?format=events summary: the
// fresh fingerprints are stored, the known ones only touched.
func gateEventsIngest(fresh, known int, sum history.IngestSummary) error {
	if sum.Received != fresh+known || sum.Stored != fresh || sum.Deduped != known {
		return fmt.Errorf("events ingest: received %d, stored %d, deduped %d; want %d, %d, %d",
			sum.Received, sum.Stored, sum.Deduped, fresh+known, fresh, known)
	}
	return nil
}

// gateStoreLen checks the store's final size.
func gateStoreLen(got, want int) error {
	if got != want {
		return fmt.Errorf("store holds %d events, want %d", got, want)
	}
	return nil
}
