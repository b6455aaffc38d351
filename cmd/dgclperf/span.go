package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package around
// the layer's public function. Its name is "<layer>.<call>"; op identifies
// the request the call belongs to (an epoch, a query, a set-up), so the
// spans of one request share it; lane is the device or connection it ran on.
type span struct {
	name       string
	id, parent int // parent is -1 for a root span
	op, lane   int
	start, end time.Duration // since the recorder was made
}

func (s span) dur() time.Duration { return s.end - s.start }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.name, ".")
	return layer
}

// recorder keeps spans in memory until the run ends. Ranks record their
// compute spans concurrently, hence the lock.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id for end and for children's parent.
func (r *recorder) begin(name string, parent, op, lane int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, id: id, parent: parent, op: op, lane: lane, start: now, end: -1})
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	return r.spans[id].dur()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children that overlap each other
// (ranks computing side by side) cover their union once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered, edge := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// durationsMs returns the durations of every span called name, in order.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// snapshot copies the spans recorded from the from'th on; every one of them
// must have ended.
func (r *recorder) snapshot(from int) ([]span, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans[from:] {
		if s.end < 0 {
			return nil, fmt.Errorf("span %q (op %d) never ended", s.name, s.op)
		}
	}
	return append([]span(nil), r.spans[from:]...), nil
}

// count is the number of spans recorded so far.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// chrome://tracing and Perfetto load the file as is.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans as a Chrome trace, one lane per thread id.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"op": s.op, "id": s.id, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	return nil
}
