package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"weseer/internal/history"
)

// table2Reports builds a report pair that satisfies the Table II gate:
// d1–d13 on the first app, d14–d18 on the second, 245 entries, and the
// 326 = 226 + 100 funnel.
func table2Reports(t *testing.T) []runReport {
	t.Helper()
	mk := func(ids []string, n int, st runStats) runReport {
		var r runReport
		r.Stats = st
		for i := 0; i < n; i++ {
			r.Deadlocks = append(r.Deadlocks, runEntry{
				Fingerprint: fmt.Sprintf("%016x", i),
				Catalog:     ids[i%len(ids)],
				APIs:        [2]string{"A", "B"},
				Tables:      [2]string{"t1", "t2"},
				Count:       1,
			})
		}
		return reparse(t, r, 300)
	}
	return []runReport{
		mk(tableIIIDs[:13], 180, runStats{GroupsSolved: 199, SolverCalls: 102, MemoHits: 97}),
		mk(tableIIIDs[13:], 65, runStats{GroupsSolved: 127, SolverCalls: 124, MemoHits: 3}),
	}
}

// reparse round-trips a report through the -json encoding, with the
// given fine-phase time, so its deterministic form is set the way
// parseRunReport sets it.
func reparse(t *testing.T, r runReport, fineMS int) runReport {
	t.Helper()
	data, err := json.Marshal(map[string]any{
		"version": 1,
		"stats": map[string]any{
			"groups_solved": r.Stats.GroupsSolved, "solver_calls": r.Stats.SolverCalls,
			"memo_hits": r.Stats.MemoHits, "unknown": r.Stats.Unknown,
			"parallelism": 2, "fine_time_ms": fineMS,
		},
		"deadlocks": r.Deadlocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseRunReport(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGateTable2Passes(t *testing.T) {
	if err := gateTable2(table2Reports(t)); err != nil {
		t.Fatalf("untampered Table II reports fail the gate: %v", err)
	}
}

func TestGateTable2MissingCatalogID(t *testing.T) {
	reps := table2Reports(t)
	// Relabel every d7 report: the count and funnel stay right, only
	// one catalog id goes missing.
	for i := range reps[0].Deadlocks {
		if reps[0].Deadlocks[i].Catalog == "d7" {
			reps[0].Deadlocks[i].Catalog = "d8"
		}
	}
	err := gateTable2(reps)
	if err == nil || !strings.Contains(err.Error(), "d7") {
		t.Fatalf("a report missing d7 passed the gate (err = %v)", err)
	}
}

func TestGateTable2Funnel(t *testing.T) {
	for name, tamper := range map[string]func([]runReport){
		"memo hit lost":  func(r []runReport) { r[1].Stats.MemoHits-- },
		"extra call":     func(r []runReport) { r[0].Stats.SolverCalls++ },
		"report dropped": func(r []runReport) { r[1].Deadlocks = r[1].Deadlocks[1:] },
		"unknown":        func(r []runReport) { r[0].Stats.Unknown = 1 },
	} {
		reps := table2Reports(t)
		tamper(reps)
		if err := gateTable2(reps); err == nil {
			t.Errorf("%s: tampered funnel passed the gate", name)
		}
	}
}

func TestGateGenClasses(t *testing.T) {
	var r runReport
	for _, c := range plantedClasses {
		r.Deadlocks = append(r.Deadlocks, runEntry{Catalog: c})
	}
	if err := gateGen([]runReport{r}); err != nil {
		t.Fatalf("all 11 classes fail the gate: %v", err)
	}
	r.Deadlocks = r.Deadlocks[:10] // f11 gone
	if err := gateGen([]runReport{r}); err == nil || !strings.Contains(err.Error(), "f11") {
		t.Fatalf("a report missing f11 passed the gate (err = %v)", err)
	}
}

// The deterministic report ignores timings and worker count but no
// other byte.
func TestSameReports(t *testing.T) {
	specs := []string{"broadleaf", "shopizer"}
	ref := table2Reports(t)
	got := table2Reports(t)
	if err := sameReports(ref, got, specs); err != nil {
		t.Fatalf("identical reports differ: %v", err)
	}
	if err := sameReports(ref[:1], []runReport{reparse(t, ref[0], 999)}, specs); err != nil {
		t.Fatalf("a timing difference fails the comparison: %v", err)
	}
	got[1].Deadlocks[3].Fingerprint = "ffffffffffffffff"
	got[1] = reparse(t, got[1], 300)
	if err := sameReports(ref, got, specs); err == nil || !strings.Contains(err.Error(), "shopizer") {
		t.Fatalf("a changed fingerprint passed the comparison (err = %v)", err)
	}
}

func TestGateTraceIngest(t *testing.T) {
	const want = 180
	first := history.IngestSummary{Received: 180, Stored: 180}
	repeat := history.IngestSummary{Received: 180, Deduped: 180}
	if stored, err := gateTraceIngest("broadleaf", want, first); err != nil || !stored {
		t.Errorf("first sighting: stored=%v err=%v", stored, err)
	}
	if stored, err := gateTraceIngest("broadleaf", want, repeat); err != nil || stored {
		t.Errorf("repeat: stored=%v err=%v", stored, err)
	}
	// A re-ingest that stores some events: the dedup is broken.
	partial := history.IngestSummary{Received: 180, Stored: 3, Deduped: 177}
	if _, err := gateTraceIngest("broadleaf", want, partial); err == nil {
		t.Error("a re-ingest storing 3 of 180 events passed the gate")
	}
	short := history.IngestSummary{Received: 179, Deduped: 179}
	if _, err := gateTraceIngest("broadleaf", want, short); err == nil {
		t.Error("an ingest diagnosing one deadlock too few passed the gate")
	}
}

// A repeat ingest that stores everything again looks like a first
// sighting on its own; the end-of-run check catches the second store.
func TestGateFirstSightingsReIngestStores(t *testing.T) {
	if err := gateFirstSightings(map[string]int{"broadleaf": 1, "shopizer": 1}); err != nil {
		t.Fatalf("one store per corpus fails: %v", err)
	}
	err := gateFirstSightings(map[string]int{"broadleaf": 2, "shopizer": 1})
	if err == nil || !strings.Contains(err.Error(), "broadleaf") {
		t.Fatalf("a re-ingest that stored events passed (err = %v)", err)
	}
	if err := gateFirstSightings(map[string]int{"shopizer": 0}); err == nil {
		t.Fatal("a corpus ingested but never stored passed")
	}
}

func TestGateEventsIngest(t *testing.T) {
	if err := gateEventsIngest(7, 1, history.IngestSummary{Received: 8, Stored: 7, Deduped: 1}); err != nil {
		t.Fatal(err)
	}
	if err := gateEventsIngest(7, 1, history.IngestSummary{Received: 8, Stored: 8}); err == nil {
		t.Fatal("an events batch storing a known fingerprint passed")
	}
	if err := gateEventsIngest(7, 1, history.IngestSummary{Received: 8, Stored: 6, Deduped: 2}); err == nil {
		t.Fatal("an events batch dropping a fresh fingerprint passed")
	}
	if err := gateStoreLen(4100, 4101); err == nil {
		t.Fatal("a short store passed")
	}
}

// testStream is an event stream over three small corpora, with every
// event of a corpus in its own class.
func testStream(seed int64) *eventStream {
	var templates [][]history.Event
	for c, n := range []int{23, 7, 2} {
		var evs []history.Event
		for j := 0; j < n; j++ {
			evs = append(evs, history.Event{Fingerprint: fmt.Sprintf("real-%d-%d", c, j), Class: fmt.Sprintf("c%d", c)})
		}
		templates = append(templates, evs)
	}
	return newEventStream(seed, templates)
}

// The seeded streams: the same seed gives the same sequence, renamed
// fingerprints never repeat within a run, and the mix has the stated
// shape.
func TestMixSequence(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100000; i++ {
		fp := fingerprint(3, i)
		if seen[fp] {
			t.Fatalf("fingerprint %d repeats", i)
		}
		seen[fp] = true
	}
	if fingerprint(3, 10) == fingerprint(4, 10) {
		t.Error("different seeds give the same fingerprint")
	}
	// Every block of the sequence has the same composition: each trace
	// corpus once, and each corpus's events batch three times.
	for block := 0; block < 50; block++ {
		var kinds [numKinds]int
		var traces, events [3]int
		for pos := 0; pos < len(mixBlock); pos++ {
			i := block*len(mixBlock) + pos
			k, arg := kindOf(5, i)
			if k2, arg2 := kindOf(5, i); k2 != k || arg2 != arg {
				t.Fatal("kindOf is not deterministic")
			}
			kinds[k]++
			switch k {
			case reqTraces:
				traces[arg]++
			case reqEvents:
				events[arg]++
			}
		}
		if kinds != [numKinds]int{3, 9, 6, 6, 6} {
			t.Fatalf("block %d has kinds %v", block, kinds)
		}
		if traces != [3]int{1, 1, 1} || events != [3]int{3, 3, 3} {
			t.Fatalf("block %d posts trace corpora %v and events corpora %v", block, traces, events)
		}
	}
	same := true
	for i := 0; i < len(mixBlock); i++ {
		a, _ := kindOf(5, i)
		b, _ := kindOf(6, i)
		same = same && a == b
	}
	if same {
		t.Error("the seed does not change the order")
	}
}

// An events batch is its corpus's event list, renamed: one event in
// freshEvery is new to the store, the rest recur from the pre-fill.
func TestEventsBatch(t *testing.T) {
	s := testStream(5)
	if s.prefillLen() != prefillRounds*32 {
		t.Fatalf("pre-fill holds %d events, want %d", s.prefillLen(), prefillRounds*32)
	}
	prefilled := map[string]bool{}
	for r := 0; r < prefillRounds; r++ {
		for c, tpl := range s.templates {
			for j := range tpl {
				prefilled[s.event(r, c, j).Fingerprint] = true
			}
		}
	}
	if len(prefilled) != s.prefillLen() {
		t.Fatalf("pre-fill has %d distinct fingerprints, want %d", len(prefilled), s.prefillLen())
	}
	fresh := map[string]bool{}
	for i := 0; i < 200; i++ {
		c := i % 3
		evs, n := s.batch(i, c)
		if len(evs) != len(s.templates[c]) || n != (len(evs)+freshEvery-1)/freshEvery {
			t.Fatalf("batch %d: %d events, %d fresh", i, len(evs), n)
		}
		got := 0
		for j, e := range evs {
			if e.Class != s.templates[c][j].Class {
				t.Fatalf("batch %d event %d changed class", i, j)
			}
			switch {
			case prefilled[e.Fingerprint]:
			case fresh[e.Fingerprint]:
				t.Fatalf("batch %d: fresh fingerprint %s was already sent", i, e.Fingerprint)
			default:
				fresh[e.Fingerprint] = true
				got++
			}
		}
		if got != n {
			t.Fatalf("batch %d: %d new fingerprints, says %d", i, got, n)
		}
	}
	if c := s.classes(); len(c) != 3 || c[0] != "c0" || c[2] != "c2" {
		t.Errorf("classes = %v", c)
	}
}

// A serve-mix corpus set passes only if its Table II part and its gen:
// part both pass.
func TestGateServeCorpora(t *testing.T) {
	var gen runReport
	for _, c := range plantedClasses {
		gen.Deadlocks = append(gen.Deadlocks, runEntry{Catalog: c})
	}
	reps := append(table2Reports(t), gen)
	if err := gateServeCorpora(reps); err != nil {
		t.Fatalf("untampered corpora fail: %v", err)
	}
	for i := range reps[0].Deadlocks {
		if reps[0].Deadlocks[i].Catalog == "d7" {
			reps[0].Deadlocks[i].Catalog = ""
		}
	}
	if err := gateServeCorpora(reps); err == nil || !strings.Contains(err.Error(), "d7") {
		t.Fatalf("corpora missing d7 passed (err = %v)", err)
	}
	reps = append(table2Reports(t), runReport{Deadlocks: gen.Deadlocks[:10]})
	if err := gateServeCorpora(reps); err == nil || !strings.Contains(err.Error(), "f11") {
		t.Fatalf("corpora missing f11 passed (err = %v)", err)
	}
}

// BENCHMARK.json at the checkout root names exactly the metrics the
// harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the harness", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i := range b.EndToEnd {
		if i < len(endToEnd) && (b.EndToEnd[i].Name != endToEnd[i].name || b.EndToEnd[i].Unit != endToEnd[i].unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, harness %v", i, b.EndToEnd[i], endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i := range b.PerLayer {
		if i < len(perLayer) && (b.PerLayer[i].Name != perLayer[i].name || b.PerLayer[i].Unit != perLayer[i].unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, harness %v", i, b.PerLayer[i], perLayer[i])
		}
	}
}
