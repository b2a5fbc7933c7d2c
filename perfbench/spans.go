package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded by the traced run
// around a public function of the program. Spans of one traced pass
// share Pass; Parent links a call to the step that made it.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: a pass's root span
	Pass    int     `json:"pass"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"` // since the recorder started
	EndMS   float64 `json:"end_ms"`
	// SelfMS is the span's duration minus the part its children cover
	// (children of one span run one after another, never overlapping).
	SelfMS float64            `json:"self_ms"`
	Counts map[string]float64 `json:"counts,omitempty"`

	alloc0, gc0 float64
}

func (s *span) durMS() float64 { return s.EndMS - s.StartMS }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced passes run the same code.
type recorder struct {
	t0    time.Time
	pass  int
	spans []*span
	rm    []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		t0: time.Now(),
		rm: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
		},
	}
}

// runtimeNow reads cumulative heap allocation (bytes) and GC CPU time
// (seconds).
func (r *recorder) runtimeNow() (alloc, gc float64) {
	metrics.Read(r.rm)
	return float64(r.rm[0].Value.Uint64()), r.rm[1].Value.Float64()
}

// begin opens a span under parent and returns its id (0 when r is nil).
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	s := &span{ID: len(r.spans) + 1, Parent: parent, Pass: r.pass, Name: name}
	s.alloc0, s.gc0 = r.runtimeNow()
	r.spans = append(r.spans, s)
	s.StartMS = ms(time.Since(r.t0))
	return s.ID
}

// end closes span id, adding the runtime/metrics deltas over the span
// and any counts the call returned.
func (r *recorder) end(id int, counts map[string]float64) *span {
	if r == nil {
		return nil
	}
	s := r.spans[id-1]
	s.EndMS = ms(time.Since(r.t0))
	alloc, gc := r.runtimeNow()
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	for k, v := range counts {
		s.Counts[k] = v
	}
	s.Counts["alloc_bytes"] = alloc - s.alloc0
	s.Counts["gc_cpu_ms"] = (gc - s.gc0) * 1000
	return s
}

// do runs fn inside a span and returns the span (nil when r is nil).
func (r *recorder) do(parent int, name string, fn func(id int)) *span {
	id := r.begin(parent, name)
	fn(id)
	return r.end(id, nil)
}

// newPass starts the next traced pass; its spans share the pass number.
func (r *recorder) newPass() {
	if r != nil {
		r.pass++
	}
}

// writeJSONL computes self times and writes every span as one JSON line.
func (r *recorder) writeJSONL(path string) error {
	child := map[int]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.durMS()
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		s.SelfMS = s.durMS() - child[s.ID]
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
